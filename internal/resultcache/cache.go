// Package resultcache is the content-addressed result cache behind the
// avsecd campaign daemon: one entry per (experiment, seed, code
// version) holds the run's report bytes and typed sim.Metric stream,
// so a repeated sweep of an unchanged binary is served from disk
// instead of recomputed.
//
// The cache is safe to trust precisely because the sim kernel is
// deterministic: the same experiment at the same seed under the same
// code produces byte-identical output, so replaying a stored result is
// indistinguishable from recomputation. Everything in the design
// defends that equivalence:
//
//   - Keys are SHA-256 digests over length-prefixed parts (experiment
//     id, seed, code version, and — for DSL scenarios — the canonical
//     scenario.ini bytes), so no concatenation of distinct inputs can
//     collide and a changed binary or edited scenario can never serve
//     a stale result.
//   - Entries embed a SHA-256 checksum of their body; a flipped bit
//     or truncated file is detected on read, counted, deleted, and
//     reported as a miss — corruption degrades to recomputation, never
//     to wrong bytes.
//   - Writes are atomic (temp file + rename in the same directory), so
//     concurrent readers see either the whole entry or none of it, and
//     a crash mid-write cannot leave a half-entry behind.
//
// An entry is a small binary file, written and read in one pass: an
// 8-byte magic, the key, the SHA-256 of the body, and the body — the
// report as a uvarint length and its bytes, then the metric count and
// each metric as a length-prefixed name and the value's IEEE-754 bits.
// Metric values therefore survive the cache bit-exactly, −0 and
// subnormals included. The encoding is canonical: an entry that reads
// back is exactly the bytes Put would write for it. Non-finite metrics
// (NaN/Inf), which no experiment produces and the NDJSON stream cannot
// carry, are rejected at Put.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autosec/internal/sim"
)

// Entry is one cached run result: exactly what the campaign runner
// needs to treat the cell as executed.
type Entry struct {
	// Report is the run's rendered report, byte-for-byte.
	Report string
	// Metrics is the run's typed metric stream, in publication order.
	Metrics []sim.Metric
}

// entryMagic opens every entry file and names its format. The key is
// stored after it for operator-facing debuggability (an entry names
// what it is) and cross-checked on read so a file renamed onto the
// wrong key cannot be served.
const entryMagic = "AVSECRC1"

// entryExt is the suffix of entry files.
const entryExt = ".entry"

// Stats counts cache outcomes since the process started. Counters only
// ever increase; they feed the daemon's /api/v1/cache endpoint and the
// CI smoke check that a repeated sweep really was served from cache.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stores  uint64 `json:"stores"`
	Corrupt uint64 `json:"corrupt"`
}

// Cache is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use.
type Cache struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	stores  atomic.Uint64
	corrupt atomic.Uint64
}

// New opens (creating if needed) a cache rooted at dir.
func New(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Key derives the content address for a sequence of parts. Each part
// is length-prefixed before hashing, so ("ab", "c") and ("a", "bc")
// address different entries — the key is a function of the parts, not
// of their concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps a key to its file, sharded by the first key byte so one
// directory never accumulates every entry.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+entryExt)
}

// EntryPath returns the file that holds (or would hold) key's entry.
// Tooling and test hook: the fleet fault-injection tests corrupt an
// entry in place through it to prove that on-disk corruption degrades
// to recomputation, never to wrong bytes.
func (c *Cache) EntryPath(key string) string { return c.path(key) }

// Entries lists the key of every entry currently on disk, in
// unspecified order. Tooling and test hook; the store may change
// concurrently, so the listing is only a snapshot.
func (c *Cache) Entries() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(c.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), entryExt) {
			return nil
		}
		keys = append(keys, strings.TrimSuffix(d.Name(), entryExt))
		return nil
	})
	return keys, err
}

// Get returns the entry stored under key, or ok=false on a miss. A
// corrupt entry (bad magic, wrong embedded key, checksum mismatch, or
// a body that does not decode exactly) is counted, deleted, and
// reported as a miss: the caller recomputes and the next Put heals the
// cache.
func (c *Cache) Get(key string) (*Entry, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	e, ok := decodeEntry(key, data)
	if !ok {
		c.discardCorrupt(key)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// discardCorrupt counts and removes a damaged entry, then records the
// miss the caller observes.
func (c *Cache) discardCorrupt(key string) {
	c.corrupt.Add(1)
	c.misses.Add(1)
	os.Remove(c.path(key))
}

// Put stores e under key atomically: the entry is serialized to a
// temporary file in the destination directory and renamed into place,
// so a concurrent Get sees either the complete entry or a miss.
func (c *Cache) Put(key string, e *Entry) error {
	data, err := encodeEntry(key, e)
	if err != nil {
		return err
	}
	dst := c.path(key)
	shard := filepath.Dir(dst)
	tmp, err := os.CreateTemp(shard, "put-*")
	if errors.Is(err, fs.ErrNotExist) {
		// First entry of this shard: create its directory on demand
		// rather than statting it on every store.
		if err = os.MkdirAll(shard, 0o755); err == nil {
			tmp, err = os.CreateTemp(shard, "put-*")
		}
	}
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	c.stores.Add(1)
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Corrupt: c.corrupt.Load(),
	}
}

// encodeEntry renders the entry file for e under key in one buffer:
// magic, key, body checksum, body (see the package comment).
func encodeEntry(key string, e *Entry) ([]byte, error) {
	size := len(entryMagic) + len(key) + sha256.Size + 2*binary.MaxVarintLen64 + len(e.Report)
	for _, m := range e.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("resultcache: metric %q has non-finite value %v", m.Name, m.Value)
		}
		size += binary.MaxVarintLen64 + len(m.Name) + 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, entryMagic...)
	buf = append(buf, key...)
	buf = append(buf, make([]byte, sha256.Size)...)
	bodyAt := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(e.Report)))
	buf = append(buf, e.Report...)
	// The count is stored plus one, so that 0 means a nil slice and 1
	// an empty one: both come back as they went in.
	count := uint64(0)
	if e.Metrics != nil {
		count = uint64(len(e.Metrics)) + 1
	}
	buf = binary.AppendUvarint(buf, count)
	for _, m := range e.Metrics {
		buf = binary.AppendUvarint(buf, uint64(len(m.Name)))
		buf = append(buf, m.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value))
	}
	sum := sha256.Sum256(buf[bodyAt:])
	copy(buf[bodyAt-sha256.Size:bodyAt], sum[:])
	return buf, nil
}

// decodeEntry parses an entry file read for key, reporting ok=false
// for anything encodeEntry could not have written for that key.
func decodeEntry(key string, data []byte) (*Entry, bool) {
	bodyAt := len(entryMagic) + len(key) + sha256.Size
	if len(data) < bodyAt ||
		string(data[:len(entryMagic)]) != entryMagic ||
		string(data[len(entryMagic):len(entryMagic)+len(key)]) != key ||
		sha256.Sum256(data[bodyAt:]) != [sha256.Size]byte(data[bodyAt-sha256.Size:bodyAt]) {
		return nil, false
	}
	// One string copy of the body backs the report and every metric
	// name.
	body := data[bodyAt:]
	r := bodyReader{b: body, s: string(body)}
	e := &Entry{Report: r.str()}
	if count := r.uvarint(); count > 0 {
		// Every metric takes at least nine bytes (a name length and
		// the value), which bounds the allocation a bad count can ask
		// for.
		n := count - 1
		if n > uint64(len(r.b)-r.off)/9 {
			return nil, false
		}
		e.Metrics = make([]sim.Metric, n)
		for i := range e.Metrics {
			m := &e.Metrics[i]
			m.Name = r.str()
			m.Value = r.float()
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, false
			}
		}
	}
	if r.bad || r.off != len(r.b) {
		return nil, false
	}
	return e, true
}

// bodyReader walks an entry body. The first malformed field sets bad;
// later reads then return zero values without advancing.
type bodyReader struct {
	b   []byte
	s   string // the same bytes as b, for substrings without copies
	off int
	bad bool
}

// uvarint reads a minimally encoded uvarint. A longer encoding of the
// same value ends in a zero byte; rejecting it keeps the format
// canonical.
func (r *bodyReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// str reads a uvarint length and that many bytes.
func (r *bodyReader) str() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// float reads 8 little-endian bytes as float64 bits.
func (r *bodyReader) float() float64 {
	if r.bad || len(r.b)-r.off < 8 {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// codeVersion memoizes CodeVersion: the binary does not change while
// the process runs.
var codeVersion struct {
	once sync.Once
	v    string
}

// CodeVersion identifies the code the current process is running: the
// SHA-256 of the executable file itself, making the cache key
// content-addressed all the way down — any rebuild that changes a
// single byte of the binary invalidates every prior entry, with no
// version constant to forget to bump. When the executable cannot be
// read (platform without os.Executable, deleted-while-running), it
// degrades to a process-unique token, so the cache still works within
// the process but can never serve a prior process's entries to code it
// could not identify.
func CodeVersion() string {
	codeVersion.once.Do(func() {
		codeVersion.v = fmt.Sprintf("unversioned-%d-%d", os.Getpid(), time.Now().UnixNano())
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		codeVersion.v = hex.EncodeToString(h.Sum(nil))
	})
	return codeVersion.v
}
