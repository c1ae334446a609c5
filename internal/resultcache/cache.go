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
//   - Entries embed their full key and a SHA-256 checksum of their
//     body; a flipped bit, a truncated record or a record read under
//     the wrong key is detected on read, counted, dropped from the
//     index, and reported as a miss — corruption degrades to
//     recomputation, never to wrong bytes.
//   - Segments are append-only and each has exactly one writer, so a
//     reader indexes only complete frames and a crash mid-write leaves
//     at most a torn tail that is never served.
//
// Entries live in segment files, <random>.seg in the cache directory.
// Each Cache value creates its own segment (O_EXCL) on its first Put
// and appends every store to it in one write, so no two writers ever
// share a file and no lock spans processes. A segment is a sequence of
// frames: the record length as 4 little-endian bytes, then the record,
// which is one entry: an 8-byte magic, the key, the SHA-256 of the
// body, and the body — the report as a uvarint length and its bytes,
// then the metric count and each metric as a length-prefixed name and
// the value's IEEE-754 bits. Metric values therefore survive the cache
// bit-exactly, −0 and subnormals included. The encoding is canonical:
// an entry that reads back is exactly the bytes Put would write for
// it. Non-finite metrics (NaN/Inf), which no experiment produces and
// the NDJSON stream cannot carry, are rejected at Put.
//
// An in-memory index maps the first 64 bits of a key (its first 16 hex
// digits) to the record's packed location: segment slot, frame offset
// and record length in one uint64. A hit is one index lookup, one
// ReadAt and one decode, which checks magic, full key, checksum and
// body. The index is filled lazily: Put indexes its own record, and a
// Get that misses first reads every other segment past the last frame
// it indexed, and lists the directory again only when the directory
// changed. So Cache values in other processes (a fleet's daemons on
// one shared directory) serve each other's entries, and a fresh Cache
// on an existing directory serves what earlier ones stored.
package resultcache

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// entryMagic opens every record and names its format. The key is
// stored after it, both so that a scan can index a record by its key
// prefix and so that a record read at the wrong location cannot be
// served.
const entryMagic = "AVSECRC1"

// segExt is the suffix of segment files.
const segExt = ".seg"

// frameHead is the size of a frame's record-length field.
const frameHead = 4

// prefixLen is the number of leading key characters, hex digits of a
// Key digest, that make up a key's 64-bit index id.
const prefixLen = 16

// A location packs a record's segment slot, frame offset and record
// length into one uint64, so an index entry is 16 bytes of payload.
const (
	lenBits     = 22                            // records up to 4 MiB
	offBits     = 28                            // frames start below 256 MiB; the writer then moves on
	maxRecord   = 1<<lenBits - 1                // largest record Put accepts
	maxOffset   = 1 << offBits                  // first frame offset a location cannot hold
	maxSegments = 1 << (64 - offBits - lenBits) // segment slots per Cache
)

// racyListing is how long after a directory change a listing is
// trusted only until the next refresh: a segment created within the
// same file-system timestamp tick as the listing leaves the
// directory's mtime unchanged.
const racyListing = time.Second

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

	mu     sync.Mutex
	index  map[uint64]uint64 // key id → packed record location
	segs   []*segment        // by slot
	names  map[string]bool   // file names of segs
	w      *segment          // segment Puts append to; nil until the first Put and after an abandoned one
	listed time.Time         // directory mtime at the last listing
	racy   bool              // the last listing may have missed a segment; list again
	buf    []byte            // scan scratch

	hits    atomic.Uint64
	misses  atomic.Uint64
	stores  atomic.Uint64
	corrupt atomic.Uint64
}

// segment is one open segment file.
type segment struct {
	f    *os.File
	path string
	slot int
	// end is the offset past the last frame this Cache indexed (or, for
	// its writer, wrote). A scan resumes there.
	end int64
	// done stops scans and writes: the writer abandoned the segment
	// (a failed write, a full location range, a corrupt record read
	// back), or a scan met a frame no location can hold.
	done bool
}

// New opens (creating if needed) a cache rooted at dir. It opens no
// segment: the first Put creates one and the first miss reads the
// others.
func New(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir, index: make(map[uint64]uint64), names: make(map[string]bool)}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Close closes the cache's segment files. The cache must not be used
// afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range c.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

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

// keyID is the index id of a key or of a record's embedded key: its
// first 16 characters read as lowercase hex, as Key writes them.
// ok=false for anything shorter or not hex; such a key is never
// stored.
func keyID[T string | []byte](k T) (id uint64, ok bool) {
	if len(k) < prefixLen {
		return 0, false
	}
	for i := 0; i < prefixLen; i++ {
		d := k[i]
		switch {
		case '0' <= d && d <= '9':
			d -= '0'
		case 'a' <= d && d <= 'f':
			d -= 'a' - 10
		default:
			return 0, false
		}
		id = id<<4 | uint64(d)
	}
	return id, true
}

// recordID is the index id of the key embedded in a record.
func recordID(rec []byte) (uint64, bool) {
	if len(rec) < len(entryMagic) || string(rec[:len(entryMagic)]) != entryMagic {
		return 0, false
	}
	return keyID(rec[len(entryMagic):])
}

func pack(slot int, off int64, n int) uint64 {
	return uint64(slot)<<(offBits+lenBits) | uint64(off)<<lenBits | uint64(n)
}

func unpack(loc uint64) (slot int, off int64, n int) {
	return int(loc >> (offBits + lenBits)), int64(loc >> lenBits & (maxOffset - 1)), int(loc & maxRecord)
}

// RecordSpan returns the segment file that holds key's record and the
// record's byte span [off, end) in it; the frame's length field is the
// frameHead bytes before off. ok=false if the cache holds no record for
// key. Tooling and test hook: the corruption tests damage a record in
// place through it to prove that on-disk corruption degrades to
// recomputation, never to wrong bytes.
func (c *Cache) RecordSpan(key string) (path string, off, end int64, ok bool) {
	id, ok := keyID(key)
	if !ok {
		return "", 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.lookup(id)
	if !ok {
		return "", 0, 0, false
	}
	slot, at, n := unpack(loc)
	return c.segs[slot].path, at + frameHead, at + frameHead + int64(n), true
}

// lookup returns id's location, reading new frames and segments first
// if the index does not have it. c.mu must be held.
func (c *Cache) lookup(id uint64) (uint64, bool) {
	if loc, ok := c.index[id]; ok {
		return loc, true
	}
	c.refresh()
	loc, ok := c.index[id]
	return loc, ok
}

// Get returns the entry stored under key, or ok=false on a miss. A
// corrupt record (bad frame, magic, embedded key, checksum, or a body
// that does not decode exactly) is counted, dropped from the index,
// and reported as a miss: the caller recomputes and the next Put
// appends a replacement. A record of another key that shares key's
// 64-bit id is a plain miss.
func (c *Cache) Get(key string) (*Entry, bool) {
	id, ok := keyID(key)
	var s *segment
	var loc uint64
	if ok {
		c.mu.Lock()
		if loc, ok = c.lookup(id); ok {
			slot, _, _ := unpack(loc)
			s = c.segs[slot]
		}
		c.mu.Unlock()
	}
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	_, off, n := unpack(loc)
	buf := make([]byte, frameHead+n)
	if _, err := s.f.ReadAt(buf, off); err == nil && binary.LittleEndian.Uint32(buf) == uint32(n) {
		rec := buf[frameHead:]
		if e, ok := decodeEntry(key, rec); ok {
			c.hits.Add(1)
			return e, true
		}
		if rid, ok := recordID(rec); ok && rid == id && !strings.HasPrefix(string(rec[len(entryMagic):]), key) {
			// Another key's record under the same id.
			c.misses.Add(1)
			return nil, false
		}
	}
	c.mu.Lock()
	if c.index[id] == loc {
		delete(c.index, id)
	}
	if c.w == s {
		// The writer's own file is not what it wrote: append no more
		// records at offsets it can no longer trust.
		s.done, c.w = true, nil
	}
	c.mu.Unlock()
	c.corrupt.Add(1)
	c.misses.Add(1)
	return nil, false
}

// Put stores e under key with one append to the cache's own segment,
// creating that segment on the first Put. A failed write abandons the
// segment, whose earlier records stay readable, and the next Put
// starts a new one; so does a segment whose next frame offset a
// location could not hold, and one in which Get found a corrupt
// record.
func (c *Cache) Put(key string, e *Entry) error {
	id, ok := keyID(key)
	if !ok {
		return fmt.Errorf("resultcache: key %q is not a Key digest", key)
	}
	frame, err := encodeEntry(make([]byte, frameHead), key, e)
	if err != nil {
		return err
	}
	n := len(frame) - frameHead
	if n > maxRecord {
		return fmt.Errorf("resultcache: entry of %d bytes exceeds the %d-byte record limit", n, maxRecord)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil || c.w.end >= maxOffset {
		if err := c.create(); err != nil {
			return err
		}
	}
	w := c.w
	if _, err := w.f.Write(frame); err != nil {
		w.done, c.w = true, nil
		return fmt.Errorf("resultcache: %w", err)
	}
	c.index[id] = pack(w.slot, w.end, n)
	w.end += int64(len(frame))
	c.stores.Add(1)
	return nil
}

// create opens a new, uniquely named segment as the writer. c.mu must
// be held.
func (c *Cache) create() error {
	if c.w != nil {
		c.w.done, c.w = true, nil
	}
	if len(c.segs) == maxSegments {
		return fmt.Errorf("resultcache: %d segments open, no slot for another", maxSegments)
	}
	// rand.Read does not fail on supported platforms; were it to repeat
	// a name, O_EXCL refuses the file and this Put reports the error.
	var r [8]byte
	rand.Read(r[:])
	name := hex.EncodeToString(r[:]) + segExt
	path := filepath.Join(c.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	c.w = c.add(f, name, path)
	return nil
}

// add gives an open segment file the next slot. c.mu must be held.
func (c *Cache) add(f *os.File, name, path string) *segment {
	s := &segment{f: f, path: path, slot: len(c.segs)}
	c.segs = append(c.segs, s)
	c.names[name] = true
	return s
}

// refresh indexes what other writers stored since the last refresh:
// it opens segments created since the directory was last listed, then
// scans every segment but the writer's past its last indexed frame.
// c.mu must be held.
func (c *Cache) refresh() {
	if fi, err := os.Stat(c.dir); err == nil && (c.racy || !fi.ModTime().Equal(c.listed)) {
		c.listed, c.racy = fi.ModTime(), time.Since(fi.ModTime()) < racyListing
		c.list()
	}
	for _, s := range c.segs {
		if s != c.w && !s.done {
			c.scan(s)
		}
	}
}

// list opens every segment file in the directory that the cache does
// not have open yet. c.mu must be held.
func (c *Cache) list() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, d := range ents {
		name := d.Name()
		if !d.Type().IsRegular() || !strings.HasSuffix(name, segExt) || c.names[name] || len(c.segs) == maxSegments {
			continue
		}
		path := filepath.Join(c.dir, name)
		if f, err := os.Open(path); err == nil {
			c.add(f, name, path)
		}
	}
}

// scan indexes the complete frames of s past s.end whose record names
// a key id the index does not have yet. An incomplete frame — a writer
// mid-append, or a crash's torn tail — ends the scan; the next scan
// reads it again. c.mu must be held.
func (c *Cache) scan(s *segment) {
	if c.buf == nil {
		c.buf = make([]byte, 64<<10)
	}
	for {
		n, err := s.f.ReadAt(c.buf, s.end)
		b := c.buf[:n]
		for len(b) >= frameHead {
			size := int(binary.LittleEndian.Uint32(b))
			if size > maxRecord || s.end >= maxOffset {
				s.done = true
				return
			}
			if len(b) < frameHead+size {
				if err == nil && frameHead+size > len(c.buf) {
					// The buffer is full and one frame is bigger.
					c.buf = make([]byte, frameHead+size)
				}
				break
			}
			if id, ok := recordID(b[frameHead : frameHead+size]); ok {
				if _, dup := c.index[id]; !dup {
					c.index[id] = pack(s.slot, s.end, size)
				}
			}
			s.end += int64(frameHead + size)
			b = b[frameHead+size:]
		}
		if err != nil {
			return
		}
	}
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

// encodeEntry appends the record for e under key to dst, sized in one
// allocation: magic, key, body checksum, body (see the package
// comment).
func encodeEntry(dst []byte, key string, e *Entry) ([]byte, error) {
	size := len(entryMagic) + len(key) + sha256.Size + 2*binary.MaxVarintLen64 + len(e.Report)
	for _, m := range e.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("resultcache: metric %q has non-finite value %v", m.Name, m.Value)
		}
		size += binary.MaxVarintLen64 + len(m.Name) + 8
	}
	buf := slices.Grow(dst, size)
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

// decodeEntry parses a record read for key, reporting ok=false for
// anything encodeEntry could not have written for that key.
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
