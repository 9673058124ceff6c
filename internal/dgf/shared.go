package dgf

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// The replicas of a shard hold the same base data and apply the same DDL and
// loads, so every reorganisation job (Build, Append) a replica runs, and
// every data file a load writes, its siblings produce from the same bytes.
// The paper writes a file once and lets HDFS replicate it; SharedJobs does
// the same for a replica set. The first replica to start a job runs it and
// publishes what it produced: the output files, sealed (dfs.SealedFile),
// each reduce task's pairs before they merge with stored ones, the merged
// pairs it put into its own store as one kvstore.Run, the observed cell
// bounds and the job's statistics. A sibling that then starts the same job —
// one whose description (describeJob) has the same SHA-256 digest — waits
// for it, installs the files into its own filesystem and merges the task
// pairs with its own key-value store, task by task, as its own reduce tasks
// would have; when that yields exactly the published run's pairs it puts the
// run itself, else its own pairs. A load (Load) is a job too: the first
// replica to apply it encodes its rows into the table's files and publishes
// them, and a sibling applying the same rows to the same files installs them
// instead of encoding the rows again. Each replica keeps its own namespace,
// key-value store (slot table and metadata) and file lifetimes; what the set
// holds once is the sealed payloads of the files, which no filesystem writes
// into (see package dfs), and each job's merged pairs, which no store writes
// into (see package kvstore). A sibling whose job differs in any byte, or
// whose publisher failed, runs the job itself.
//
// The record holds one result per generation of an index or table, so a
// replica may run ahead of a sibling by several loads and appends and the
// sibling still installs each. It holds no more for a sibling than that
// sibling can still take (jobRecord.follows): one result of each index or
// table, plus one for every logged record queued on the sibling's applier,
// since applying a record starts at most one load and the one append it
// leads to. The queue is the write-ahead log's: it bounds how far a live
// sibling falls behind (wal.Options.MaxPendingRows), and it stops growing
// while the sibling is down, so an outage pins no more than what the sibling
// had queued when it went down plus one result of each index or table; the
// sibling writes the rest of what it missed itself.

// SharedJobs is one replica's handle on its replica set's shared record of
// reorganisation jobs. A nil *SharedJobs is a replica without siblings: every
// job runs where it is started.
type SharedJobs struct {
	rec     *jobRecord
	replica int
}

// NewSharedJobs creates the record of a set of n replicas and returns each
// replica's handle on it, indexed by replica. queued reports how many logged
// records a replica has yet to apply, the one it is applying included; nil
// means none are ever queued, as for replicas that are only called directly.
func NewSharedJobs(n int, queued func(replica int) int) []*SharedJobs {
	if queued == nil {
		queued = func(int) int { return 0 }
	}
	rec := &jobRecord{n: n, queued: queued, indexes: map[jobKey]*indexJobs{}}
	out := make([]*SharedJobs, n)
	for i := range out {
		out[i] = &SharedJobs{rec: rec, replica: i}
	}
	return out
}

// Held returns how many reorganisation job results the record keeps,
// finished or still running.
func (s *SharedJobs) Held() int { return s.held(false) }

// HeldLoads returns how many loads' files the record keeps, written or still
// being written.
func (s *SharedJobs) HeldLoads() int { return s.held(true) }

func (s *SharedJobs) held(loads bool) int {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	n := 0
	for k, ij := range s.rec.indexes {
		if k.load == loads {
			n += len(ij.jobs)
		}
	}
	return n
}

// HeldFiles returns, by path, the sealed files of every published result the
// record holds, so a test can tell whose bytes a held result pins.
func (s *SharedJobs) HeldFiles() map[string]dfs.SealedFile {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	out := map[string]dfs.SealedFile{}
	for _, ij := range s.rec.indexes {
		for _, j := range ij.jobs {
			if j.out != nil {
				for _, f := range j.out.files {
					out[f.path] = f.file
				}
			}
		}
	}
	return out
}

// Counts returns how many reorganisation jobs the set's replicas ran under
// the record, and how many they installed from a sibling instead of running.
func (s *SharedJobs) Counts() (ran, installed int) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.rec.ran, s.rec.installed
}

// LoadCounts returns how many loads the set's replicas wrote under the
// record, and how many they installed from a sibling instead of writing.
func (s *SharedJobs) LoadCounts() (written, installed int) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.rec.loadsWritten, s.rec.loadsInstalled
}

// jobRecord is what the handles of one replica set share.
type jobRecord struct {
	mu      sync.Mutex
	n       int
	queued  func(replica int) int // logged records a replica has yet to apply
	indexes map[jobKey]*indexJobs

	ran, installed               int // reorganisation jobs run and installed
	loadsWritten, loadsInstalled int // loads written and installed
}

// jobKey names the jobs that follow one another at rising generations: an
// index's reorganisation jobs, by its data directory, or a table's loads, by
// the table's directory (which an index's data directory may equal).
type jobKey struct {
	load bool
	dir  string
}

// indexJobs is the record of one index: the generation each replica last
// started a job at, and the job results the set holds for it, one per
// generation, oldest first.
type indexJobs struct {
	began []int // per replica; -1 before its first job
	jobs  []*sharedJob
}

// sharedJob is one job a replica runs for its siblings. It is held until
// every sibling it was published for has taken it or started another job of
// the index at its generation or a later one.
type sharedJob struct {
	desc    [sha256.Size]byte
	gen     int
	pending []bool        // per replica: may still install this job
	done    chan struct{} // closed once out is final
	closed  bool
	out     *jobOutput // nil when the job failed
}

// jobOutput is what a job produced that does not depend on the store of the
// replica that ran it.
type jobOutput struct {
	files  []outputFile
	tasks  []taskPairs  // in task order
	run    *kvstore.Run // the merged pairs the publisher put, in task order
	lo, hi []int64      // observed cell bounds, nil when no record was read
	stats  mapreduce.Stats
	rows   []storage.Row // a load's rows, which a sibling's must equal
}

// outputFile is one file the job wrote: a Slice file or one of its sidecars.
type outputFile struct {
	path string
	file dfs.SealedFile
}

// taskPairs is one reduce task's pairs before they merge with stored ones.
type taskPairs struct {
	task  int
	pairs []gfuPair
}

// start records that this replica starts the job with description desc at
// generation gen of the index or table key names. It returns either the job
// to publish into — this replica runs it and a sibling may install it — or a
// sibling's job with the same description to wait for and install; both nil
// means run alone.
func (s *SharedJobs) start(key jobKey, gen int, desc [sha256.Size]byte) (publish, install *sharedJob) {
	rec, me := s.rec, s.replica
	// Read before the record's lock is taken, so no lock of the siblings'
	// appliers is ever taken inside it.
	follows := make([]int, rec.n)
	for i := range follows {
		if i != me {
			follows[i] = rec.follows(i)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ij := rec.indexes[key]
	if ij == nil {
		ij = &indexJobs{began: make([]int, rec.n)}
		for i := range ij.began {
			ij.began[i] = -1
		}
		rec.indexes[key] = ij
	}
	ij.began[me] = gen
	for i := len(ij.jobs) - 1; i >= 0; i-- {
		j := ij.jobs[i]
		if !j.pending[me] || gen < j.gen {
			continue
		}
		if j.desc == desc {
			install = j
		}
		// This replica takes the job or has passed its generation: it will
		// never start that job again.
		ij.release(j, me)
	}
	if install != nil || slices.ContainsFunc(ij.jobs, func(j *sharedJob) bool { return j.gen == gen }) {
		return nil, install
	}
	// Publish only for siblings that have yet to start this generation and
	// can still take one more result of this index or table.
	pending, some := make([]bool, rec.n), false
	for i, g := range ij.began {
		if i != me && g < gen && ij.pendingFor(i) < follows[i] {
			pending[i], some = true, true
		}
	}
	if !some {
		return nil, nil
	}
	j := &sharedJob{desc: desc, gen: gen, pending: pending, done: make(chan struct{})}
	at := len(ij.jobs)
	for at > 0 && ij.jobs[at-1].gen > gen {
		at--
	}
	ij.jobs = slices.Insert(ij.jobs, at, j)
	return j, nil
}

// follows returns how many results of one index or table the record holds
// for replica r at most: one for a job no logged record leads to (a build, or
// a probe's append), and one for each record queued on r, whose apply starts
// one load and the append it leads to.
func (rec *jobRecord) follows(r int) int { return 1 + rec.queued(r) }

// pendingFor returns how many held jobs replica r may still install.
func (ij *indexJobs) pendingFor(r int) int {
	n := 0
	for _, j := range ij.jobs {
		if j.pending[r] {
			n++
		}
	}
	return n
}

// release marks held job j used or passed by replica r, dropping it once no
// sibling is left to install it.
func (ij *indexJobs) release(j *sharedJob, r int) {
	j.pending[r] = false
	if !slices.Contains(j.pending, true) {
		ij.drop(j)
	}
}

// drop stops holding job j.
func (ij *indexJobs) drop(j *sharedJob) {
	if i := slices.Index(ij.jobs, j); i >= 0 {
		ij.jobs = slices.Delete(ij.jobs, i, i+1)
	}
}

// finish publishes the outcome of job j: out, or nil for a failed job, which
// the record then stops holding. Only the first call counts, so a publisher
// may defer finish(nil) as its failure path.
func (s *SharedJobs) finish(key jobKey, j *sharedJob, out *jobOutput) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if j.closed {
		return
	}
	j.closed, j.out = true, out
	if out == nil {
		s.rec.indexes[key].drop(j)
	}
	close(j.done)
}

// count tallies one job this replica ran, or installed from a sibling.
func (s *SharedJobs) count(installed bool) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if installed {
		s.rec.installed++
	} else {
		s.rec.ran++
	}
}

// Load writes the files of one load on this replica, once per replica set.
// dir is the table's directory and gen its file sequence number before the
// load; paths lists every file write creates, sidecars included, and desc
// the rest the files' bytes are a function of besides the rows (the table's
// storage settings). The first replica to apply a load runs write and
// publishes the sealed files with its rows; a sibling applying a load with
// the same description and paths at the same generation, whose rows equal
// those cell for cell, installs those files into fs instead. A sibling
// whose rows differ, or whose publisher failed or left a file open, runs
// write itself. A nil *SharedJobs runs write. On an error the caller removes
// what paths names, as a failed write leaves it. A sibling waits for its publisher with
// its own warehouse locked; a publisher never waits for a sibling.
func (s *SharedJobs) Load(fs *dfs.FS, dir string, gen int, desc string, rows []storage.Row, paths []string, write func() error) error {
	if s == nil {
		return write()
	}
	key := jobKey{load: true, dir: dir}
	digest := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s\x00%s", gen, desc, strings.Join(paths, "\x00"))))
	publish, install := s.start(key, gen, digest)
	if install != nil {
		<-install.done
		if out := install.out; out != nil && sameRows(out.rows, rows) {
			s.countLoad(true)
			for _, f := range out.files {
				if err := fs.Install(f.path, f.file); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if publish != nil {
		defer s.finish(key, publish, nil) // a no-op once published
	}
	s.countLoad(false)
	if err := write(); err != nil {
		return err
	}
	if publish != nil {
		out := &jobOutput{rows: rows, files: make([]outputFile, len(paths))}
		for i, p := range paths {
			f, err := fs.Sealed(p)
			if err != nil {
				// The load succeeded here; the deferred finish tells the
				// siblings to write their own files.
				return nil
			}
			out.files[i] = outputFile{path: p, file: f}
		}
		s.finish(key, publish, out)
	}
	return nil
}

// countLoad tallies one load this replica wrote, or installed from a sibling.
func (s *SharedJobs) countLoad(installed bool) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if installed {
		s.rec.loadsInstalled++
	} else {
		s.rec.loadsWritten++
	}
}

// sameRows reports whether two loads' rows are equal cell for cell: kind, I,
// the bits of F, and S. Rows that share their cells — every replica of a
// shard applies the same committed record — match without a look at them.
func sameRows(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if len(x) != len(y) {
			return false
		}
		if len(x) == 0 || &x[0] == &y[0] {
			continue
		}
		for j, v := range x {
			w := y[j]
			if v.Kind != w.Kind || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) || v.S != w.S {
				return false
			}
		}
	}
	return true
}

// describeJob digests everything a build job's output is a function of: the
// index spec and schema, the formats, the group rows, the reducer count, the
// generation, the data directory, the cluster model and the filesystem block
// size (which fix the splits and the statistics), and the input files' bytes
// in the order the job reads them. Two replicas whose descriptions match run
// the same job.
func (ix *Index) describeJob(cfg *cluster.Config, in *mapreduce.FileInput, reducers, gen int) ([sha256.Size]byte, error) {
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.AppendUvarint(nil, uint64(len(b))))
		h.Write(b)
	}
	field([]byte(ix.Spec.Name))
	field(encodePolicy(ix.Spec.Policy))
	field(encodeSpecs(ix.Spec.Precompute))
	for _, c := range ix.Schema.Cols {
		field([]byte(c.Name + "\x00" + c.Kind.String()))
	}
	field([]byte(fmt.Sprintf("%d %d %d %d %d %d %+v", ix.Format, in.Format, ix.GroupRows, reducers, gen,
		ix.FS.BlockSize(), *cfg)))
	field([]byte(ix.DataDir))
	files := in.Paths
	if in.Dir != "" {
		fis, err := ix.FS.ListFiles(in.Dir)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		files = make([]string, 0, len(fis)+len(in.Paths))
		for _, fi := range fis {
			files = append(files, fi.Path)
		}
		files = append(files, in.Paths...)
	}
	for _, p := range files {
		if err := hashFile(h, ix.FS, p); err != nil {
			return [sha256.Size]byte{}, err
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

// hashFile feeds one input file to h, length first.
func hashFile(h hash.Hash, fs *dfs.FS, p string) error {
	f, err := fs.Open(p)
	if err != nil {
		return err
	}
	h.Write(binary.AppendUvarint(nil, uint64(f.Size())))
	_, err = io.Copy(h, f)
	return err
}

// collectOutput gathers the sealed files the job's reduce tasks wrote, with
// their sidecars, for a sibling to install, beside the run of merged pairs
// this replica put.
func (ix *Index) collectOutput(gen int, tasks []taskPairs, run *kvstore.Run, lo, hi []int64, stats mapreduce.Stats) (*jobOutput, error) {
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].task < tasks[b].task })
	out := &jobOutput{tasks: tasks, run: run, lo: lo, hi: hi, stats: stats}
	for _, t := range tasks {
		name := ix.partFile(int64(gen), int64(t.task))
		for _, p := range []string{name, storage.ColStatsPath(name)} {
			f, err := ix.FS.Sealed(p)
			if errors.Is(err, dfs.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, err
			}
			out.files = append(out.files, outputFile{path: p, file: f})
		}
	}
	return out, nil
}

// installJob finishes generation gen on this replica from a sibling's output
// of the same job: it installs the files into this replica's filesystem and
// merges each task's pairs with this replica's store, in task order, as its
// own reduce tasks would have. A pair that fails to merge fails the run and
// removes the files, as a failed job does. The merge is what checks the
// sibling's run: the store puts that run only if it holds exactly the merged
// pairs, and its own pairs otherwise.
func (ix *Index) installJob(cfg *cluster.Config, gen, reducers int, fresh bool, out *jobOutput, kvBefore kvstore.Stats) (*BuildStats, error) {
	merged := make([]mergedPairs, 0, len(out.tasks))
	err := func() error {
		for _, f := range out.files {
			if err := ix.FS.Install(f.path, f.file); err != nil {
				return err
			}
		}
		for _, t := range out.tasks {
			m, err := ix.mergePairs(gen, t.task, t.pairs)
			if err != nil {
				return err
			}
			merged = append(merged, m)
		}
		return nil
	}()
	if err != nil {
		ix.removeRun(gen, reducers)
		return nil, err
	}
	ix.extendCellBounds(fresh, out.lo, out.hi)
	stats, _ := ix.commitRun(cfg, out.stats, merged, out.run, kvBefore)
	return stats, nil
}
