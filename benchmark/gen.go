package main

// Frozen inputs: every row, load batch and statement the benchmark sends is
// generated here from -seed alone, with a private PRNG, so a later change to
// internal/workload (or to math/rand) cannot silently change what is
// measured. gen_test.go pins hashes of the first rows and statements.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Dataset shape (the paper's meter data, laptop scale).
const (
	numUsers     = 20000
	numRegions   = 11
	baseDays     = 30
	numVendors   = 64
	daySeconds   = 24 * 3600
	batchRows    = 2000                 // one /load batch of ingest_mixed
	batchesInDay = numUsers / batchRows // ingest batches that make up one day
	userCell     = 400                  // DGFIndex userId interval
	baseRowCount = numUsers * baseDays
)

var startDay = time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)

// rng is splitmix64: tiny, fast, and frozen with the benchmark.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, stream) pair, so day 31 of
// a dataset does not depend on how many numbers day 30 consumed.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// RNG stream identifiers (day streams use the day number itself).
const (
	streamStatements = 1 << 32
	streamCacheDraw  = 1<<32 + 1
	streamSubCent    = 1<<32 + 2
)

// dataset is the generated meter data in the compact form the oracle reads:
// arrival order and power (in 0.01 units, so oracle sums are exact integers)
// per day. Days past baseDays are the ingest stream and are made on demand.
type dataset struct {
	seed  int64
	order [][]int32 // [day] users (1-based) in arrival order
	cents [][]int32 // [day][user-1] powerConsumed * 100
}

func newDataset(seed int64, days int) *dataset {
	d := &dataset{seed: seed}
	d.extend(days)
	return d
}

// extend generates days until the dataset holds n.
func (d *dataset) extend(n int) {
	for day := len(d.order); day < n; day++ {
		r := newRNG(d.seed, uint64(day))
		order := make([]int32, numUsers)
		for i := range order {
			order[i] = int32(i + 1)
		}
		for i := numUsers - 1; i > 0; i-- {
			j := r.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		cents := make([]int32, numUsers)
		for _, u := range order {
			cents[u-1] = int32(r.intn(100000))
		}
		d.order = append(d.order, order)
		d.cents = append(d.cents, cents)
	}
}

func regionOf(user int) int { return user%numRegions + 1 }

func vendorOf(user, day int) int { return (user*31 + day*17) % numVendors }

func vendorName(v int) string { return fmt.Sprintf("vendor-%02d", v) }

func dayUnix(day int) int64 { return startDay.Unix() + int64(day)*daySeconds }

func power(cents int32) float64 { return float64(cents) / 100 }

// rows renders one day as typed rows in arrival order; with vendor the rows
// carry meterlog's fifth column.
func (d *dataset) rows(day int, vendor bool) []storage.Row {
	ts := dayUnix(day)
	out := make([]storage.Row, 0, numUsers)
	for _, u := range d.order[day] {
		user := int(u)
		row := storage.Row{
			storage.Int64(int64(user)),
			storage.Int64(int64(regionOf(user))),
			storage.TimeUnix(ts),
			storage.Float64(power(d.cents[day][user-1])),
		}
		if vendor {
			row = append(row, storage.Str(vendorName(vendorOf(user, day))))
		}
		out = append(out, row)
	}
	return out
}

// csvLine is the user-visible form of one reading; its length is the "user
// byte" denominator of the storage and WAL amplification ratios.
func (d *dataset) csvLine(dst []byte, day, user int) []byte {
	dst = strconv.AppendInt(dst, int64(user), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(regionOf(user)), 10)
	dst = append(dst, ',')
	dst = time.Unix(dayUnix(day), 0).UTC().AppendFormat(dst, "2006-01-02 15:04:05")
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, power(d.cents[day][user-1]), 'f', 2, 64)
	return append(dst, '\n')
}

// csvBytes is the CSV size of days [from, to).
func (d *dataset) csvBytes(from, to int) int64 {
	var n int64
	var buf []byte
	for day := from; day < to; day++ {
		for _, u := range d.order[day] {
			buf = d.csvLine(buf[:0], day, int(u))
			n += int64(len(buf))
		}
	}
	return n
}

// userInfoRows is the replicated archive table joined in Listing 6. Its key
// column is named uid so the router replicates it instead of sharding it.
func userInfoRows() []storage.Row {
	rows := make([]storage.Row, numUsers)
	for u := 1; u <= numUsers; u++ {
		rows[u-1] = storage.Row{
			storage.Int64(int64(u)),
			storage.Str(userName(u)),
			storage.Int64(int64(regionOf(u))),
			storage.Str(fmt.Sprintf("%d Grid Street, District %d", u%997, regionOf(u))),
		}
	}
	return rows
}

func userName(u int) string { return fmt.Sprintf("user-%07d", u) }

// batch is one ingest_mixed /load request: one collector's report for one
// day, the readings of the batchRows users [block*batchRows+1,
// (block+1)*batchRows] in their arrival order. Every fifth batch is posted
// with ?sync=1.
//
// A collector owns whole userId intervals of the index, so each grid cell
// receives all of its rows in one load. That is deliberate: at the seed
// commit dgf.Index.mergePairs pairs old and new GFU values by two separate
// iterations over one map, so a cell appended to twice answers boundary
// reads wrongly, and a workload must not contain operations that fail.
type batch struct {
	index int
	day   int
	block int
	sync  bool
}

func ingestBatch(i int) batch {
	return batch{
		index: i,
		day:   baseDays + i/batchesInDay,
		block: i % batchesInDay,
		sync:  i%5 == 4,
	}
}

// batchUsers lists the batch's users in arrival order.
func (d *dataset) batchUsers(b batch) []int32 {
	lo, hi := int32(b.block*batchRows+1), int32((b.block+1)*batchRows)
	out := make([]int32, 0, batchRows)
	for _, u := range d.order[b.day] {
		if u >= lo && u <= hi {
			out = append(out, u)
		}
	}
	return out
}

// batchRows renders the batch as typed rows.
func (d *dataset) batchRows(b batch) []storage.Row {
	users := d.batchUsers(b)
	ts := dayUnix(b.day)
	rows := make([]storage.Row, len(users))
	for i, u := range users {
		rows[i] = storage.Row{
			storage.Int64(int64(u)),
			storage.Int64(int64(regionOf(int(u)))),
			storage.TimeUnix(ts),
			storage.Float64(power(d.cents[b.day][u-1])),
		}
	}
	return rows
}

// loadBody is the JSON body of the batch's POST /load.
func (d *dataset) loadBody(b batch, table string) []byte {
	buf := make([]byte, 0, batchRows*40)
	buf = append(buf, `{"table":"`...)
	buf = append(buf, table...)
	buf = append(buf, `","rows":[`...)
	ts := dayUnix(b.day)
	for i, u := range d.batchUsers(b) {
		if i > 0 {
			buf = append(buf, ',')
		}
		user := int(u)
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(user), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(regionOf(user)), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, ts, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, power(d.cents[b.day][user-1]), 'f', 2, 64)
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// Statement classes.
const (
	classAgg      = "agg"
	classAggNoPre = "agg_nopre"
	classGroupBy  = "groupby"
	classJoin     = "join"
	classPoint    = "point"
	classZone     = "zone"
	classDict     = "dict"
	classProject  = "project"
	classFull     = "full"
	classFrontier = "frontier"
)

// Aggregate shapes a statement can select.
const (
	selSum      = "sum"       // sum(powerConsumed)
	selMax      = "max"       // max(powerConsumed)
	selAvg      = "avg"       // avg(powerConsumed)
	selCountSum = "count,sum" // count(*), sum(powerConsumed)
	selCountAvg = "count,avg" // count(*), avg(powerConsumed)
	selJoin     = "join"      // t2.userName, t1.powerConsumed
	selProject  = "project"   // userId, ts, powerConsumed
)

// stmt is one generated statement: the SQL the server receives and the
// structured predicate the oracle evaluates. Zero bounds mean "no predicate
// on that column".
type stmt struct {
	Class   string
	Table   string
	SQL     string
	Select  string
	GroupBy string // "", "ts" or "regionId"

	UserLo, UserHi     int   // inclusive
	RegionLo, RegionHi int   // inclusive
	TsLo, TsHi         int64 // ts >= TsLo AND ts < TsHi (Unix seconds)
	MinCents           int   // powerConsumed >= MinCents/100 (with HasMin)
	HasMin             bool
	SubCent            int   // 1..999: the bound is written off the cents grid (see where)
	Vendors            []int // vendor IN (...)
}

// The class schedules give every prefix of a statement list the issue's
// class shares exactly (per 20 statements), so a run that completes more or
// fewer statements in its fixed time still measures the same mix.
var (
	// agg 35 %, groupby 30 %, point 15 %, agg_nopre 10 %, join 10 %.
	mdrqSchedule = [20]string{
		classAgg, classGroupBy, classPoint, classAgg, classGroupBy,
		classJoin, classAgg, classGroupBy, classAggNoPre, classAgg,
		classPoint, classGroupBy, classAgg, classJoin, classGroupBy,
		classAgg, classPoint, classAggNoPre, classGroupBy, classAgg,
	}
	// zone 50 %, dict 20 %, project 20 %, full 10 %: the median sits well
	// inside zone (after the 40 % that are cheaper) and p95 in the middle of
	// full, neither on a class boundary.
	scanSchedule = [20]string{
		classZone, classDict, classZone, classProject, classZone,
		classFull, classZone, classDict, classZone, classProject,
		classZone, classDict, classZone, classProject, classZone,
		classFull, classZone, classDict, classZone, classProject,
	}
	// Queries beside ingest: 80 % over loaded days, 20 % over the frontier.
	ingestSchedule = [10]string{
		classAgg, classGroupBy, classAgg, classGroupBy, classFrontier,
		classAgg, classGroupBy, classAgg, classGroupBy, classFrontier,
	}
)

// stmtGen yields an endless, deterministic list of distinct statements.
//
// Every discrete choice that changes what a statement costs — selectivity,
// how many regions, which GROUP BY column, which aggregate — rotates with the
// statement's number within its class; only the offsets of the ranges are
// random. All seeds therefore run the same shapes in the same order, and the
// cost distribution (so every percentile) differs between seeds by where the
// ranges fall, not by which shapes a seed happened to draw.
type stmtGen struct {
	r      *rng
	sub    *rng // SubCent's own stream: r yields what sets a statement's cost, as it did without SubCent
	n      int
	seen   map[string]bool
	made   map[string]int // statements handed out so far, by class
	make   func(g *stmtGen, i int) stmt
	tables []string // alternated per statement
	// redraws counts the draws thrown away for repeating earlier SQL.
	redraws int
}

func newStmtGen(seed int64, make func(*stmtGen, int) stmt, tables ...string) *stmtGen {
	return &stmtGen{r: newRNG(seed, streamStatements), sub: newRNG(seed, streamSubCent), seen: map[string]bool{}, made: map[string]int{}, make: make, tables: tables}
}

// maxRedraws is how many consecutive draws may repeat earlier SQL before next
// declares the statement's class exhausted. Every class's space is sized so
// that a list of minStatements never comes near it (README, "Dataset").
const (
	maxRedraws    = 1000
	minStatements = 50000
)

// next returns statement number g.n. Parameters are redrawn until the SQL is
// new, so every statement of a run misses the result cache by construction.
// A class that has run out of new statements is an error, not a longer wait:
// the redraws are bounded.
func (g *stmtGen) next() (stmt, error) {
	var s stmt
	for redraws := 0; redraws < maxRedraws; redraws++ {
		s = g.make(g, g.n)
		if !g.seen[s.SQL] {
			g.seen[s.SQL] = true
			g.made[s.Class]++
			g.n++
			return s, nil
		}
		g.redraws++
	}
	return stmt{}, fmt.Errorf("statement %d: class %s is exhausted: it made %d distinct statements, then %d draws in a row repeated one of them (widen the class in gen.go)",
		g.n, s.Class, g.made[s.Class], maxRedraws)
}

// table alternates the target tables so that each class slot of a schedule
// meets every table: the parity flips each schedule period.
func (g *stmtGen) table(i, period int) string {
	return g.tables[(i+i/period)%len(g.tables)]
}

// digit peels one mixed-radix digit off a shape number: successive calls
// rotate through every combination of the choices they feed.
func digit(k *int, radix int) int {
	d := *k % radix
	*k /= radix
	return d
}

// mdrq gives s a three-dimensional range predicate matching about frac of
// the base rows. Bounds are random offsets, never cell edges, so a boundary
// region always exists; every fifth statement of a class omits regionId (the
// paper's partially specified query, Fig. 17). shape is what is left of the
// statement's class number after the caller took its own digits.
func (g *stmtGen) mdrq(s *stmt, frac float64, shape int) {
	r := g.r
	regions := numRegions
	span := 3 + digit(&shape, 6)
	if g.made[s.Class]%5 != 4 {
		regions = span
		s.RegionLo = r.between(1, numRegions-regions+1)
		s.RegionHi = s.RegionLo + regions - 1
	}
	days := int(float64(baseDays)*(0.25+2*frac)) + digit(&shape, 3)
	if days < 1 {
		days = 1
	}
	if days > baseDays-1 {
		days = baseDays - 1
	}
	users := int(frac * numUsers * float64(numRegions) / float64(regions) * float64(baseDays) / float64(days))
	if users < 1 {
		users = 1
	}
	if users > numUsers-2 {
		users = numUsers - 2
	}
	s.UserLo = r.between(1, numUsers-users)
	if (s.UserLo-1)%userCell == 0 {
		s.UserLo++
	}
	s.UserHi = s.UserLo + users - 1
	if s.UserHi%userCell == 0 {
		s.UserHi--
	}
	// Readings sit at midnight; a bound inside a day leaves that day's cell
	// partially covered, which is what makes it a boundary cell.
	firstDay := r.intn(baseDays - days + 1)
	s.TsLo = dayUnix(firstDay) - int64(r.between(1, daySeconds-1))
	s.TsHi = dayUnix(firstDay+days-1) + int64(r.between(1, daySeconds-1))
}

func (s *stmt) where() string {
	var c []string
	if s.UserLo == s.UserHi && s.UserLo > 0 {
		c = append(c, fmt.Sprintf("userId=%d", s.UserLo))
	} else if s.UserLo > 0 {
		c = append(c, fmt.Sprintf("userId>=%d AND userId<=%d", s.UserLo, s.UserHi))
	}
	if s.RegionLo > 0 {
		c = append(c, fmt.Sprintf("regionId>=%d AND regionId<=%d", s.RegionLo, s.RegionHi))
	}
	if s.TsLo != 0 {
		c = append(c, "ts>='"+sqlTime(s.TsLo)+"'")
	}
	if s.TsHi != 0 {
		c = append(c, "ts<'"+sqlTime(s.TsHi)+"'")
	}
	if s.HasMin {
		bound := strconv.FormatFloat(float64(s.MinCents)/100, 'f', 2, 64)
		if s.SubCent > 0 {
			// Readings are whole cents, so a bound SubCent thousandths of a
			// cent above MinCents-1 selects exactly the rows MinCents selects
			// (the oracle keeps comparing integer cents): 999 texts, one cost.
			bound = milliCents((s.MinCents-1)*1000 + s.SubCent)
		}
		c = append(c, "powerConsumed>="+bound)
	}
	if len(s.Vendors) > 0 {
		names := make([]string, len(s.Vendors))
		for i, v := range s.Vendors {
			names[i] = "'" + vendorName(v) + "'"
		}
		c = append(c, "vendor IN ("+strings.Join(names, ", ")+")")
	}
	return strings.Join(c, " AND ")
}

// milliCents writes t thousandths of a cent as a power literal, digit by
// digit: no float formatting decides where an off-grid bound lands.
func milliCents(t int) string {
	sign := ""
	if t < 0 {
		sign, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%05d", sign, t/100000, t%100000)
}

func sqlTime(unix int64) string {
	return time.Unix(unix, 0).UTC().Format("2006-01-02 15:04:05")
}

// render fills in s.SQL from the structured fields.
func (s *stmt) render() {
	var sel string
	switch s.Select {
	case selSum:
		sel = "sum(powerConsumed)"
	case selMax:
		sel = "max(powerConsumed)"
	case selAvg:
		sel = "avg(powerConsumed)"
	case selCountSum:
		sel = "count(*), sum(powerConsumed)"
	case selCountAvg:
		sel = "count(*), avg(powerConsumed)"
	case selProject:
		sel = "userId, ts, powerConsumed"
	case selJoin:
		s.SQL = "SELECT t2.userName, t1.powerConsumed FROM " + s.Table +
			" t1 JOIN userinfo t2 ON t1.userId=t2.uid WHERE " + s.where()
		return
	}
	if s.GroupBy != "" {
		sel = s.GroupBy + ", " + sel
	}
	s.SQL = "SELECT " + sel + " FROM " + s.Table
	if w := s.where(); w != "" {
		s.SQL += " WHERE " + w
	}
	if s.GroupBy != "" {
		s.SQL += " GROUP BY " + s.GroupBy
	}
}

// aggStmt and groupByStmt are shared by mdrq_index, cache_hot and
// ingest_mixed.
func (g *stmtGen) aggStmt(table string) stmt {
	s := stmt{Class: classAgg, Table: table, Select: selSum}
	k := g.made[s.Class]
	// The smallest selectivity is a handful of users on a few days, not the
	// one-row point class.
	frac := []float64{0.0002, 0.01, 0.05, 0.12}[digit(&k, 4)]
	g.mdrq(&s, frac, k)
	return s
}

func (g *stmtGen) groupByStmt(table string) stmt {
	s := stmt{Class: classGroupBy, Table: table}
	k := g.made[s.Class]
	s.GroupBy = []string{"ts", "regionId"}[digit(&k, 2)]
	s.Select = []string{selSum, selAvg}[digit(&k, 2)]
	frac := []float64{0.02, 0.05}[digit(&k, 2)]
	g.mdrq(&s, frac, k)
	return s
}

func mdrqStmt(g *stmtGen, i int) stmt {
	table := g.table(i, len(mdrqSchedule))
	var s stmt
	switch class := mdrqSchedule[i%len(mdrqSchedule)]; class {
	case classAgg:
		s = g.aggStmt(table)
	case classGroupBy:
		s = g.groupByStmt(table)
	case classAggNoPre:
		s = stmt{Class: class, Table: table, Select: selMax}
		k := g.made[class]
		frac := []float64{0.01, 0.05}[digit(&k, 2)]
		g.mdrq(&s, frac, k)
	case classJoin:
		s = stmt{Class: class, Table: table, Select: selJoin}
		g.mdrq(&s, 0.0005, g.made[class])
	case classPoint:
		s = stmt{Class: class, Table: table, Select: selSum}
		s.UserLo = g.r.between(1, numUsers)
		s.UserHi = s.UserLo
		s.RegionLo, s.RegionHi = regionOf(s.UserLo), regionOf(s.UserLo)
		day := g.r.intn(baseDays)
		s.TsLo = dayUnix(day) - int64(g.r.between(1, daySeconds-1))
		s.TsHi = dayUnix(day) + int64(g.r.between(1, daySeconds-1))
	}
	s.render()
	return s
}

func scanStmt(g *stmtGen, i int) stmt {
	s := stmt{Class: scanSchedule[i%len(scanSchedule)], Table: g.tables[0]}
	k := g.made[s.Class]
	switch s.Class {
	case classZone:
		// The last six days: zone maps prune the 80 % of groups before them.
		// The cut is always inside the same day, so every zone statement
		// costs the same and the workload's median sits inside this class.
		s.Select, s.GroupBy = selSum, "regionId"
		s.TsLo = dayUnix(baseDays-6) - int64(g.r.between(1, daySeconds-1))
	case classDict:
		s.Select = selCountSum
		first := g.r.intn(numVendors)
		for n := 1 + digit(&k, 4); len(s.Vendors) < n; {
			v := (first + len(s.Vendors)*g.r.between(1, 15)) % numVendors
			if !contains(s.Vendors, v) {
				s.Vendors = append(s.Vendors, v)
			}
		}
		// One vendor has 64 values. A bound below every reading, on the column
		// the sum reads anyway, gives each vendor list 999 texts and removes
		// no row.
		s.HasMin, s.SubCent = true, g.sub.between(1, 999)
	case classProject:
		// About 0.25 % of the rows, ~1.5k, come back as rows. The bound has 50
		// values per selectivity band; SubCent gives each 999 texts.
		s.Select = selProject
		s.HasMin, s.MinCents = true, 99650+50*digit(&k, 4)+g.r.intn(50)
		s.SubCent = g.sub.between(1, 999)
	case classFull:
		// 90-100 % of the rows qualify and fold into 11 groups.
		s.Select, s.GroupBy = selCountAvg, "regionId"
		s.HasMin, s.MinCents = true, 2000*digit(&k, 5)+g.r.intn(2000)
	}
	s.render()
	return s
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// hotStmt feeds cache_hot's fixed working set: agg and groupby alternate.
func hotStmt(g *stmtGen, i int) stmt {
	var s stmt
	if i%2 == 0 {
		s = g.aggStmt(g.tables[0])
	} else {
		s = g.groupByStmt(g.tables[0])
	}
	s.render()
	return s
}

// ingestStmt feeds the query client that runs beside the loader.
func ingestStmt(g *stmtGen, i int) stmt {
	var s stmt
	switch class := ingestSchedule[i%len(ingestSchedule)]; class {
	case classAgg:
		s = g.aggStmt(g.tables[0])
	case classGroupBy:
		s = g.groupByStmt(g.tables[0])
	case classFrontier:
		// Everything ingested so far for a range of a quarter to a half of
		// the users: the answer grows while the loader runs.
		s = stmt{Class: class, Table: g.tables[0], Select: selCountSum}
		k := g.made[class]
		s.UserLo = g.r.between(1, numUsers/2)
		s.UserHi = s.UserLo + numUsers/4 + 1000*digit(&k, 5) + g.r.intn(1000) - 1
		s.TsLo = dayUnix(baseDays) - int64(g.r.between(1, daySeconds-1))
	}
	s.render()
	return s
}

// hotDraw is request i's index into cache_hot's working set: a pure function
// of (seed, i), so the request sequence does not depend on client count.
func hotDraw(seed int64, i, n int) int {
	return newRNG(seed, streamCacheDraw+uint64(i)<<8).intn(n)
}
