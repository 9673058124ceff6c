package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.MapSlotsPerWorker = -1 },
		func(c *Config) { c.ReduceSlotsPerWorker = 0 },
		func(c *Config) { c.DiskMBps = 0 },
		func(c *Config) { c.NetMBps = -3 },
		func(c *Config) { c.KVBatchSize = 0 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error, got nil", i)
		}
	}
}

func TestSlots(t *testing.T) {
	c := Default()
	if got, want := c.MapSlots(), 28*5; got != want {
		t.Errorf("MapSlots() = %d, want %d", got, want)
	}
	if got, want := c.ReduceSlots(), 28*3; got != want {
		t.Errorf("ReduceSlots() = %d, want %d", got, want)
	}
}

// mapSeconds prices a map phase of the given tasks.
func mapSeconds(c *Config, tasks ...MapTask) float64 { return c.Price(&Ledger{Maps: tasks}).Map }

func TestScanTaskSecondsComponents(t *testing.T) {
	c := Default()
	base := mapSeconds(c, MapTask{0, 0, 0})
	if base != c.TaskStartupSec {
		t.Errorf("empty task = %v, want startup %v", base, c.TaskStartupSec)
	}
	oneMB := mapSeconds(c, MapTask{1 << 20, 0, 0}) - base
	if want := float64(c.MapSlotsPerWorker) / c.DiskMBps; math.Abs(oneMB-want) > 1e-9 {
		t.Errorf("1MB read cost = %v, want %v", oneMB, want)
	}
	seeks := mapSeconds(c, MapTask{0, 0, 10}) - base
	if want := 10 * c.SeekMs / 1e3; math.Abs(seeks-want) > 1e-9 {
		t.Errorf("10 seeks cost = %v, want %v", seeks, want)
	}
}

func TestKVSeconds(t *testing.T) {
	c := Default()
	if got := c.kvSeconds(0); got != 0 {
		t.Errorf("KVSeconds(0) = %v, want 0", got)
	}
	// One key: one batch RTT plus one per-op cost.
	want := c.KVBatchRTTMs/1e3 + c.KVPerOpUs/1e6
	if got := c.kvSeconds(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("KVSeconds(1) = %v, want %v", got, want)
	}
	// Batch boundary: KVBatchSize keys is one batch, +1 key adds a batch.
	n := int64(c.KVBatchSize)
	oneBatch := c.kvSeconds(n)
	twoBatch := c.kvSeconds(n + 1)
	if twoBatch <= oneBatch {
		t.Errorf("expected extra batch RTT: %v then %v", oneBatch, twoBatch)
	}
}

func TestMakespanDegenerate(t *testing.T) {
	if got := makespan(nil, 4); got != 0 {
		t.Errorf("makespan(nil) = %v, want 0", got)
	}
	if got := makespan([]float64{3, 1, 2}, 10); got != 3 {
		t.Errorf("more slots than tasks: got %v, want max task 3", got)
	}
	if got := makespan([]float64{1, 1, 1, 1}, 1); got != 4 {
		t.Errorf("single slot: got %v, want sum 4", got)
	}
}

func TestMakespanWaves(t *testing.T) {
	// 10 identical tasks on 4 slots: ceil(10/4)=3 waves.
	tasks := make([]float64, 10)
	for i := range tasks {
		tasks[i] = 2.0
	}
	if got := makespan(tasks, 4); got != 6.0 {
		t.Errorf("Makespan = %v, want 6.0 (3 waves of 2s)", got)
	}
}

// Property: the makespan is always between the trivial lower bounds
// (max task, total/slots) and the total serial time.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(raw []uint16, slotsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slotsRaw%16) + 1
		tasks := make([]float64, len(raw))
		total, max := 0.0, 0.0
		for i, r := range raw {
			tasks[i] = float64(r%1000) / 100.0
			total += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		m := makespan(tasks, slots)
		lower := total / float64(slots)
		if max > lower {
			lower = max
		}
		const eps = 1e-9
		return m >= lower-eps && m <= total+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScaledMapSeconds(t *testing.T) {
	c := Default().Scaled(1000)
	if c.ScaleFactor != 1000 {
		t.Fatalf("Scaled factor = %v", c.ScaleFactor)
	}
	// Empty phase costs nothing.
	if got := mapSeconds(c, MapTask{}); got != 0 {
		t.Errorf("empty phase = %v", got)
	}
	// One metre of data scaled 1000x: 1 MB -> 1 GB -> ceil(1GB/64MB)=16
	// tasks in one wave on 140 slots.
	oneMB := mapSeconds(c, MapTask{Bytes: 1 << 20})
	perTask := c.TaskStartupSec + 64*float64(c.MapSlotsPerWorker)/c.DiskMBps
	if math.Abs(oneMB-perTask) > 1e-6 {
		t.Errorf("1MB scaled phase = %v, want one wave of %v", oneMB, perTask)
	}
	// Ten times the data costs about ten times the waves once slots are
	// saturated.
	big := mapSeconds(c, MapTask{Bytes: 100 << 20})
	bigger := mapSeconds(c, MapTask{Bytes: 1000 << 20})
	if ratio := bigger / big; ratio < 8 || ratio > 12 {
		t.Errorf("10x data -> %vx time, want ~10x", ratio)
	}
	// Seeks are NOT scaled (slice counts are a grid property).
	withSeeks := mapSeconds(c, MapTask{Bytes: 1 << 20, Seeks: 100})
	if delta := withSeeks - oneMB; delta > 100*c.SeekMs/1e3+1e-9 {
		t.Errorf("seek contribution %v exceeds unscaled cost", delta)
	}
}

func TestScaledReduceAndShuffle(t *testing.T) {
	c := Default().Scaled(100)
	if got := c.Price(&Ledger{}); got.Reduce != 0 || got.Shuffle != 0 {
		t.Errorf("zero reducers = %+v", got)
	}
	one := c.Price(&Ledger{Reduces: []ReduceTask{{Bytes: 1 << 20, Groups: 1000}, {}, {}, {}}}).Reduce
	if one <= c.TaskStartupSec {
		t.Errorf("reduce phase = %v, want above startup", one)
	}
	shuffled := c.Price(&Ledger{Reduces: []ReduceTask{{Bytes: 1 << 20}}}).Shuffle
	plain := Default().Price(&Ledger{Reduces: []ReduceTask{{Bytes: 100 << 20}}}).Shuffle
	if math.Abs(shuffled-plain) > 1e-9 {
		t.Errorf("scaled shuffle %v != manual %v", shuffled, plain)
	}
}

// TestPriceScaleFactorZeroIsUnscaled: a ScaleFactor of 0 means no scaling,
// so one 100 MB reduce task is priced exactly as under ScaleFactor 1 — its
// shuffle included, which a factor of 0 used to price at 0 s.
func TestPriceScaleFactorZeroIsUnscaled(t *testing.T) {
	led := &Ledger{Reduces: []ReduceTask{{Bytes: 100 << 20, Groups: 1000}}}
	zero, one := Default(), Default()
	zero.ScaleFactor = 0
	if got, want := zero.Price(led), one.Price(led); got != want {
		t.Errorf("ScaleFactor 0 prices %+v, ScaleFactor 1 %+v", got, want)
	}
	if one.Price(led).Shuffle <= 0 {
		t.Error("a 100 MB shuffle costs nothing")
	}
}

func TestScaledClampsBelowOne(t *testing.T) {
	c := Default().Scaled(0.5)
	if c.ScaleFactor != 1 {
		t.Errorf("factor below 1 not clamped: %v", c.ScaleFactor)
	}
}

func TestReduceTaskSeconds(t *testing.T) {
	c := Default()
	reduce := func(r ReduceTask) float64 { return c.Price(&Ledger{Reduces: []ReduceTask{r}}).Reduce }
	base := reduce(ReduceTask{})
	if base != c.TaskStartupSec {
		t.Errorf("empty reduce task = %v", base)
	}
	if reduce(ReduceTask{Bytes: 1 << 20, Groups: 1000}) <= base {
		t.Error("reduce work costs nothing")
	}
}

// Property: adding a task never decreases the makespan.
func TestMakespanMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, extra uint16, slotsRaw uint8) bool {
		slots := int(slotsRaw%8) + 1
		tasks := make([]float64, len(raw))
		for i, r := range raw {
			tasks[i] = float64(r % 500)
		}
		before := makespan(tasks, slots)
		after := makespan(append(tasks, float64(extra%500)), slots)
		return after >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
