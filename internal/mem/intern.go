// Content-addressed frame interning. COW cloning shares frames that
// have a common ancestor; interning shares frames that merely have
// equal contents — N machines restored from the same serialized image
// (or booted separately) hold N private copies of every frame until
// an Intern pass folds them onto one canonical frame per distinct
// content. The dedup is exact (hash buckets are confirmed by byte
// comparison), and interned frames are safe to share because the
// store pins one reference to every canonical frame, so no owner ever
// sees a refcount of 1 and mutates it in place — a write through any
// sharer COW-faults off a private copy exactly as for clone-shared
// frames.
package mem

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// FrameStore is a content-addressed pool of canonical frames, shared
// by any number of Physicals. Safe for concurrent Intern calls from
// different machine-owning goroutines.
type FrameStore struct {
	mu      sync.Mutex
	seed    maphash.Seed
	buckets map[uint64][]*frame
	hits    uint64
}

// NewFrameStore returns an empty frame store.
func NewFrameStore() *FrameStore {
	return &FrameStore{seed: maphash.MakeSeed(), buckets: make(map[uint64][]*frame)}
}

// canonical returns the store's canonical frame for the given
// contents, registering f itself (with one pinning reference) when the
// contents are new.
func (s *FrameStore) canonical(f *frame) *frame {
	h := maphash.Bytes(s.seed, f.data[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cf := range s.buckets[h] {
		if cf == f || bytes.Equal(cf.data[:], f.data[:]) {
			if cf != f {
				s.hits++
			}
			return cf
		}
	}
	f.refs.Add(1) // the store's pin: keeps the canonical frame >1-referenced, hence immutable
	s.buckets[h] = append(s.buckets[h], f)
	return f
}

// Frames reports how many distinct canonical frames the store holds.
func (s *FrameStore) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.buckets {
		n += len(b)
	}
	return n
}

// Hits reports how many Intern lookups resolved to an already-known
// canonical frame (each hit is one frame of resident memory saved).
func (s *FrameStore) Hits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Intern folds every resident frame of p onto the store's canonical
// frame for its contents, and reports how many frames were replaced
// by an existing canonical (each replacement frees one private frame
// once its other references drop). Must be called by the goroutine
// owning p while no access is in flight, like every Physical method;
// distinct Physicals may intern into the same store concurrently.
// Frame contents and Fingerprint are unchanged; replaced frames
// become COW-shared, so later writes fault a private copy off first.
func (p *Physical) Intern(s *FrameStore) (replaced int) {
	for ci := range p.root {
		if p.root[ci] == nil {
			continue
		}
		for fi := 0; fi < physChunkSize; fi++ {
			f := p.root[ci].frames[fi]
			if f == nil {
				continue
			}
			cf := s.canonical(f)
			if cf == f {
				continue
			}
			// Splitting a shared chunk replaces p.root[ci]; re-read it
			// (done above on each iteration) and swap in the canonical.
			fn := uint32(ci)<<physChunkBits | uint32(fi)
			c := p.exclusiveChunk(fn)
			cf.refs.Add(1)
			c.frames[fi] = cf
			f.refs.Add(-1)
			replaced++
		}
	}
	p.deduped += uint64(replaced)
	return replaced
}

// ResidentFrames reports frame residency across a set of Physicals:
// naive is the sum of per-machine frame counts (what residency would
// be with no sharing at all), unique is the number of distinct frames
// actually resident. naive/unique is the dedup ratio.
func ResidentFrames(ps ...*Physical) (naive, unique int) {
	seen := make(map[*frame]struct{})
	for _, p := range ps {
		for _, c := range p.root {
			if c == nil {
				continue
			}
			for _, f := range c.frames {
				if f != nil {
					naive++
					seen[f] = struct{}{}
				}
			}
		}
	}
	return naive, len(seen)
}
