package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"edgescope/internal/rng"
)

// memFS is the package tests' disk: an in-memory fsys that keeps, beside
// what reads see, what a power loss must keep — each file's bytes as of its
// last fsync and each directory's entries as of its last directory fsync —
// and logs every mutating operation. Replaying a prefix of the log
// (memFSAt) rebuilds the disk at any operation boundary, and crashStates
// materialises the states a power loss there may leave.
//
// The crash model is POSIX's, bounded the way CrashMonkey bounds it:
//   - a file's bytes written since its last fsync may be kept, dropped, cut
//     at a record boundary or cut once mid-record;
//   - a create, mkdir, rename or unlink its directory has not fsynced since
//     may be undone or kept, each independently; an undone mkdir takes
//     everything under the directory with it;
//   - a truncate not yet covered by an fsync of the file is undone with the
//     rest of the file's unsynced changes.
//
// Writes are never reordered within a file beyond losing a suffix: a real
// kernel or disk can do worse.
type memFS struct {
	mu   sync.Mutex
	dirs map[string]*memDir
	inos []*inode
	log  []fsOp
	// prelude is the log length when the disk was handed to the code under
	// test: the operations before it only built the starting state.
	prelude int
	// dirSyncs counts SyncDir calls.
	dirSyncs int
	// faultWrite, when set, decides every write: how many of its bytes land
	// and the error the writer sees. nil writes everything.
	faultWrite func(path string, b []byte) (int, error)
}

type memDir struct {
	live, durable map[string]int // entry name → inode, or dirIno
	pending       []int          // log indices of the entry changes since the last SyncDir
}

// dirIno is a subdirectory's entry in its parent.
const dirIno = -1

type inode struct {
	name          string // its path when last created or renamed
	data, durable []byte
}

type opKind int

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opSync
	opTrunc
	opRename
	opRemove
	opSyncDir
)

// fsOp is one logged mutation.
type fsOp struct {
	kind     opKind
	path, to string // to: a rename's target
	ino      int
	data     []byte
	size     int64
}

// newMemFS is an empty disk: the roots "/" and "." only.
func newMemFS() *memFS {
	m := &memFS{dirs: map[string]*memDir{}}
	for _, root := range []string{"/", "."} {
		m.dirs[root] = newMemDir()
	}
	return m
}

func newMemDir() *memDir { return &memDir{live: map[string]int{}, durable: map[string]int{}} }

// memFSAt rebuilds the first n operations of m's log on a fresh disk.
func memFSAt(m *memFS, n int) *memFS {
	m.mu.Lock()
	ops := m.log[:n:n]
	m.mu.Unlock()
	r := newMemFS()
	for _, op := range ops {
		r.do(op)
	}
	r.prelude = m.prelude
	return r
}

// do applies and logs one mutation. Called with m.mu held, or on a disk no
// other goroutine holds yet.
func (m *memFS) do(op fsOp) {
	m.log = append(m.log, op)
	switch op.kind {
	case opMkdir:
		m.dirs[op.path] = newMemDir()
		m.dir(op.path).live[filepath.Base(op.path)] = op.ino
	case opCreate:
		m.inos = append(m.inos, &inode{name: op.path})
		m.dir(op.path).live[filepath.Base(op.path)] = op.ino
	case opWrite:
		m.inos[op.ino].data = append(m.inos[op.ino].data, op.data...)
	case opSync:
		ino := m.inos[op.ino]
		ino.durable = slices.Clone(ino.data)
	case opTrunc:
		m.inos[op.ino].data = m.inos[op.ino].data[:op.size]
	case opRename:
		d := m.dir(op.path)
		delete(d.live, filepath.Base(op.path))
		d.live[filepath.Base(op.to)] = op.ino
		m.inos[op.ino].name = op.to
	case opRemove:
		delete(m.dir(op.path).live, filepath.Base(op.path))
	case opSyncDir:
		d := m.dirs[op.path]
		d.durable = copyNames(d.live)
		d.pending = d.pending[:0]
	}
	if op.kind == opMkdir || op.kind == opCreate || op.kind == opRename || op.kind == opRemove {
		d := m.dir(op.path)
		d.pending = append(d.pending, len(m.log)-1)
	}
}

func copyNames(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func (m *memFS) dir(path string) *memDir { return m.dirs[filepath.Dir(path)] }

// lookup resolves path to its file's inode, or a *fs.PathError for op.
func (m *memFS) lookup(op, path string) (int, error) {
	if d := m.dir(path); d != nil {
		if ino, ok := d.live[filepath.Base(path)]; ok && ino != dirIno {
			return ino, nil
		} else if ok {
			return 0, &fs.PathError{Op: op, Path: path, Err: errors.New("is a directory")}
		}
	}
	return 0, &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) Mkdir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.dirs[dir] != nil {
		return &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrExist}
	}
	d := m.dir(dir)
	if d == nil {
		return &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrNotExist}
	}
	if _, ok := d.live[filepath.Base(dir)]; ok {
		return &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrExist}
	}
	m.do(fsOp{kind: opMkdir, path: dir, ino: dirIno})
	return nil
}

func (m *memFS) OpenFile(path string, flag int) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, err := m.lookup("open", path)
	switch {
	case err == nil && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	case err == nil && flag&os.O_TRUNC != 0:
		m.do(fsOp{kind: opTrunc, path: path, ino: ino})
	case errors.Is(err, fs.ErrNotExist) && flag&os.O_CREATE != 0:
		if m.dir(path) == nil {
			return nil, err
		}
		ino = len(m.inos)
		m.do(fsOp{kind: opCreate, path: path, ino: ino})
	case err != nil:
		return nil, err
	}
	return &memFile{fs: m, path: path, ino: ino}, nil
}

func (m *memFS) Open(path string) (io.ReadCloser, error) {
	b, err := m.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, err := m.lookup("open", filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	return slices.Clone(m.inos[ino].data), nil
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	names := make([]string, 0, len(d.live))
	for name := range d.live {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]os.DirEntry, len(names))
	for i, name := range names {
		entries[i] = memEntry{name, d.live[name] == dirIno}
	}
	return entries, nil
}

// memEntry is a directory entry.
type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (memEntry) Info() (fs.FileInfo, error) { return nil, errors.ErrUnsupported }

func (m *memFS) Rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	from, to = filepath.Clean(from), filepath.Clean(to)
	ino, err := m.lookup("rename", from)
	if err != nil {
		return err
	}
	if filepath.Dir(from) != filepath.Dir(to) {
		return fmt.Errorf("memfs: rename across directories: %s → %s", from, to)
	}
	m.do(fsOp{kind: opRename, path: from, to: to, ino: ino})
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, err := m.lookup("remove", path)
	if err != nil {
		return err
	}
	m.do(fsOp{kind: opRemove, path: path, ino: ino})
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, err := m.lookup("truncate", path)
	if err != nil {
		return err
	}
	if size > int64(len(m.inos[ino].data)) {
		return fmt.Errorf("memfs: truncate %s to %d grows it", path, size)
	}
	m.do(fsOp{kind: opTrunc, path: path, ino: ino, size: size})
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.dirs[dir] == nil {
		return &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	m.dirSyncs++
	m.do(fsOp{kind: opSyncDir, path: dir})
	return nil
}

// failWritesPast makes the disk full for files whose path ends in suffix:
// each takes its first n bytes, and the write that would pass them lands
// only up to n and fails, as does every write after it.
func (m *memFS) failWritesPast(suffix string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	taken := map[string]int{}
	m.faultWrite = func(path string, b []byte) (int, error) {
		if !strings.HasSuffix(path, suffix) {
			return len(b), nil
		}
		k := min(len(b), max(0, n-taken[path]))
		taken[path] += k
		if k < len(b) {
			return k, fmt.Errorf("memfs: %s: no space left after %d bytes", path, n)
		}
		return k, nil
	}
}

// memFile is an open handle: it names an inode, not a path, so writes to an
// unlinked file still land (on an inode nothing can reach).
type memFile struct {
	fs     *memFS
	path   string
	ino    int
	closed bool
}

func (f *memFile) Write(b []byte) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "write", Path: f.path, Err: fs.ErrClosed}
	}
	n, err := len(b), error(nil)
	if m.faultWrite != nil {
		n, err = m.faultWrite(f.path, b)
	}
	if n > 0 {
		m.do(fsOp{kind: opWrite, path: f.path, ino: f.ino, data: slices.Clone(b[:n])})
	}
	return n, err
}

func (f *memFile) Sync() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "sync", Path: f.path, Err: fs.ErrClosed}
	}
	m.do(fsOp{kind: opSync, path: f.path, ino: f.ino})
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "close", Path: f.path, Err: fs.ErrClosed}
	}
	f.closed = true
	return nil
}

// Crash states.

// Cuts of a file's unsynced bytes.
const (
	cutKeep     = iota // every byte written stays
	cutDrop            // back to the last fsync
	cutBoundary        // cut just after a record (recordEnds)
	cutMid             // cut inside a record
)

// dirtyFile is an inode holding unsynced changes, with the cut positions a
// crash state may pick for it.
type dirtyFile struct {
	ino           int
	boundary, mid int // 0: no such position
}

// crashState picks one outcome per unsynced entry change (keep[i] for the
// i-th of pendingOps) and per dirty file (cut[i], a cut* constant).
type crashState struct {
	keep []bool
	cut  []int
}

func (c crashState) String() string {
	var b strings.Builder
	for _, k := range c.keep {
		b.WriteByte("uk"[b2i(k)])
	}
	b.WriteByte('/')
	for _, c := range c.cut {
		b.WriteByte("kdbm"[c])
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pendingOps lists the log indices of every entry change no directory
// fsync covers yet, ordered by directory then log position.
func (m *memFS) pendingOps() []int {
	dirs := make([]string, 0, len(m.dirs))
	for d := range m.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var ops []int
	for _, d := range dirs {
		ops = append(ops, m.dirs[d].pending...)
	}
	return ops
}

// dirtyFiles lists every inode with unsynced changes, by inode number, each
// with one record-boundary and one mid-record cut drawn from r. A cut lies
// past the bytes the fsynced content and the written content share, so no
// cut loses a synced byte.
func (m *memFS) dirtyFiles(r *rng.Source) []dirtyFile {
	var out []dirtyFile
	for i, ino := range m.inos {
		if bytes.Equal(ino.data, ino.durable) {
			continue
		}
		base := 0
		for base < len(ino.data) && base < len(ino.durable) && ino.data[base] == ino.durable[base] {
			base++
		}
		var bounds, mids []int
		ends := recordEnds(ino.name, ino.data)
		for p := base + 1; p < len(ino.data); p++ {
			if _, ok := slices.BinarySearch(ends, p); ok {
				bounds = append(bounds, p)
			} else {
				mids = append(mids, p)
			}
		}
		df := dirtyFile{ino: i}
		if len(bounds) > 0 {
			df.boundary = bounds[r.IntN(len(bounds))]
		}
		if len(mids) > 0 {
			df.mid = mids[r.IntN(len(mids))]
		}
		out = append(out, df)
	}
	return out
}

// recordEnds is the crash model's one parser of WAL segments: the offset
// just past each complete record of a segment file's bytes, ascending — each
// frame whose header checks and whose bytes are all there (walrecord.go).
// Any other file holds no records.
func recordEnds(path string, data []byte) []int {
	if !strings.HasSuffix(path, walSuffix) {
		return nil
	}
	var ends []int
	for p := 0; len(data)-p >= recHeaderBytes; {
		n, _, ok := parseRecordHeader(data[p:])
		end := int64(p) + recFrameBytes + int64(n)
		if !ok || end > int64(len(data)) {
			break
		}
		p = int(end)
		ends = append(ends, p)
	}
	return ends
}

// crashStates enumerates a bounded set of the states a power loss at the
// end of m's log may leave: everything kept, everything lost, each entry
// change alone undone (the rest kept) and alone kept (the rest lost), each
// file cut each way with the rest kept, and `random` draws that mix every
// choice. Duplicates are dropped.
func (m *memFS) crashStates(r *rng.Source, random int) (pending []int, dirty []dirtyFile, states []crashState) {
	pending, dirty = m.pendingOps(), m.dirtyFiles(r)
	seen := map[string]bool{}
	add := func(c crashState) {
		if k := c.String(); !seen[k] {
			seen[k] = true
			states = append(states, c)
		}
	}
	all := func(keep bool, cut int) crashState {
		c := crashState{keep: make([]bool, len(pending)), cut: make([]int, len(dirty))}
		for i := range c.keep {
			c.keep[i] = keep
		}
		for i := range c.cut {
			c.cut[i] = cut
		}
		return c
	}
	add(all(true, cutKeep))
	add(all(false, cutDrop))
	for i := range pending {
		c := all(true, cutKeep)
		c.keep[i] = false
		add(c)
		c = all(false, cutDrop)
		c.keep[i] = true
		add(c)
	}
	for i, df := range dirty {
		for _, cut := range []int{cutDrop, cutBoundary, cutMid} {
			if cut == cutBoundary && df.boundary == 0 || cut == cutMid && df.mid == 0 {
				continue
			}
			c := all(true, cutKeep)
			c.cut[i] = cut
			add(c)
		}
	}
	for n := 0; n < random; n++ {
		c := all(true, cutKeep)
		for i := range c.keep {
			c.keep[i] = r.IntN(2) == 0
		}
		for i, df := range dirty {
			c.cut[i] = r.IntN(4)
			if c.cut[i] == cutBoundary && df.boundary == 0 || c.cut[i] == cutMid && df.mid == 0 {
				c.cut[i] = cutDrop
			}
		}
		add(c)
	}
	return pending, dirty, states
}

// content is what ino holds after a crash that cut it as cut.
func (m *memFS) content(ino int, dirty []dirtyFile, c crashState) []byte {
	in := m.inos[ino]
	for i, df := range dirty {
		if df.ino != ino {
			continue
		}
		switch c.cut[i] {
		case cutKeep:
			return in.data
		case cutDrop:
			return in.durable
		case cutBoundary:
			return in.data[:df.boundary]
		default:
			return in.data[:df.mid]
		}
	}
	return in.durable
}

// materialise builds the disk a crash in state c leaves: each directory's
// fsynced entries with the kept changes replayed over them in order, a
// directory whose entry in its parent did not survive gone with everything
// under it, each file cut as c says. Everything on the new disk is durable; its log holds
// only the operations that built it (its prelude). resurrected maps each
// name that an undone unlink brought back to that unlink's log index, and
// reached lists the inodes of m the new disk's files hold.
func (m *memFS) materialise(pending []int, dirty []dirtyFile, c crashState) (out *memFS, resurrected map[string]int, reached []int) {
	kept := map[int]bool{}
	for i, at := range pending {
		kept[at] = c.keep[i]
	}
	resurrected = map[string]int{}
	out = newMemFS()
	dirs := make([]string, 0, len(m.dirs))
	for d := range m.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs) // a parent before its subdirectories
	// entries holds each surviving directory's entries.
	entries := map[string]map[string]int{}
	for _, d := range dirs {
		if p := filepath.Dir(d); p != d {
			if ino, ok := entries[p][filepath.Base(d)]; !ok || ino != dirIno {
				continue
			}
			out.do(fsOp{kind: opMkdir, path: d, ino: dirIno})
		}
		md := m.dirs[d]
		ns := copyNames(md.durable)
		undone := map[string]int{} // name → the undone unlink that left it in place
		for _, at := range md.pending {
			op := m.log[at]
			name := filepath.Base(op.path)
			if !kept[at] {
				if ino, ok := ns[name]; ok && op.kind == opRemove && ino == op.ino {
					undone[name] = at
				}
				continue
			}
			switch op.kind {
			case opMkdir, opCreate:
				ns[name] = op.ino
			case opRename:
				if ino, ok := ns[name]; ok && ino == op.ino {
					delete(ns, name)
				}
				ns[filepath.Base(op.to)] = op.ino
			case opRemove:
				if ino, ok := ns[name]; ok && ino == op.ino {
					delete(ns, name)
				}
			}
		}
		entries[d] = ns
		names := make([]string, 0, len(ns))
		for name, ino := range ns {
			if ino != dirIno {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(d, name)
			if at, ok := undone[name]; ok && m.log[at].ino == ns[name] {
				if ino, live := md.live[name]; !live || ino != ns[name] {
					resurrected[path] = at
				}
			}
			reached = append(reached, ns[name])
			ino := len(out.inos)
			out.do(fsOp{kind: opCreate, path: path, ino: ino})
			out.do(fsOp{kind: opWrite, path: path, ino: ino, data: slices.Clone(m.content(ns[name], dirty, c))})
			out.do(fsOp{kind: opSync, path: path, ino: ino})
		}
	}
	for _, d := range dirs {
		if entries[d] != nil {
			out.do(fsOp{kind: opSyncDir, path: d})
		}
	}
	out.prelude = len(out.log)
	return out, resurrected, reached
}

// lengthsAt is every inode's written length just before log index at.
func (m *memFS) lengthsAt(at int) []int {
	n := make([]int, len(m.inos))
	for _, op := range m.log[:at] {
		switch op.kind {
		case opWrite:
			n[op.ino] += len(op.data)
		case opTrunc:
			n[op.ino] = int(op.size)
		}
	}
	return n
}
