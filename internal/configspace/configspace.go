// Package configspace models the discrete configuration spaces explored by
// Lynceus: a configuration is a tuple <N, H, P> of cluster size, hardware
// type, and job-level parameters (paper §2). A Space is the (optionally
// filtered) Cartesian product of a set of discrete dimensions.
//
// A Space holds its dimensions and, when filtered, the sorted cross-product
// indices the filter kept — never the configurations themselves. Every
// configuration, feature row and column block is decoded on demand from its
// dense ID, so a paper-scale space (hundreds of points) and a production grid
// (10^5+ points) share one representation, and full-space consumers iterate
// block-wise feature views (ForEachBlock) instead of one monolithic matrix.
package configspace

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// ErrEmptySpace is returned when a space would contain no configuration.
var ErrEmptySpace = errors.New("configspace: space contains no configuration")

// Dimension is one axis of the configuration space: an ordered list of the
// discrete numeric values the axis can take. Labels, when present, provide a
// human-readable name per value (e.g. the VM type name); they must either be
// empty or have exactly one entry per value.
type Dimension struct {
	Name   string
	Values []float64
	Labels []string
}

// Validate checks the internal consistency of the dimension.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return errors.New("configspace: dimension has empty name")
	}
	if len(d.Values) == 0 {
		return fmt.Errorf("configspace: dimension %q has no values", d.Name)
	}
	if len(d.Labels) != 0 && len(d.Labels) != len(d.Values) {
		return fmt.Errorf("configspace: dimension %q has %d labels for %d values",
			d.Name, len(d.Labels), len(d.Values))
	}
	seen := make(map[float64]struct{}, len(d.Values))
	for _, v := range d.Values {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("configspace: dimension %q has duplicate value %v", d.Name, v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// Label returns the label of the i-th value, falling back to the numeric
// value when no labels are defined.
func (d Dimension) Label(i int) string {
	if i < 0 || i >= len(d.Values) {
		return ""
	}
	if len(d.Labels) == len(d.Values) {
		return d.Labels[i]
	}
	return fmt.Sprintf("%g", d.Values[i])
}

// Config is one point of a Space. ID is the dense index of the configuration
// within its space; Indices holds the per-dimension value index; Features is
// the numeric feature vector handed to the regression model.
type Config struct {
	ID       int
	Indices  []int
	Features []float64
}

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := Config{ID: c.ID}
	out.Indices = append([]int(nil), c.Indices...)
	out.Features = append([]float64(nil), c.Features...)
	return out
}

// Filter restricts the Cartesian product of the dimensions: only index
// vectors for which it returns true are part of the space. A nil filter
// keeps every combination. The indices slice is reused across calls and must
// not be retained.
type Filter func(indices []int) bool

// Space is a finite configuration space: the (optionally filtered) Cartesian
// product of its dimensions, with configurations identified by dense IDs in
// lexicographic order of their index vectors. Configurations are decoded on
// demand; a Space is immutable after construction and safe for concurrent use.
type Space struct {
	dims    []Dimension
	total   int   // number of configurations in the space
	strides []int // strides[d]: flat-index stride of dimension d
	// accepted holds the sorted flat cross-product indices kept by the
	// filter; nil when the space is the whole cross-product, in which case
	// ID == flat index.
	accepted []int64

	// digest memoizes Digest(). The Once makes the lazy computation safe
	// under concurrent first calls (the cross-campaign sharing layer keys
	// decisions on it from many goroutines).
	digestOnce sync.Once
	digestHex  string
}

// New builds a Space over the Cartesian product of dims, restricted by
// filter. Configurations are assigned dense IDs in lexicographic order of
// their index vectors. No per-configuration storage is kept: a filtered space
// stores one int64 per kept combination (the sorted flat indices), an
// unfiltered one nothing but the dimensions.
func New(dims []Dimension, filter Filter) (*Space, error) {
	if len(dims) == 0 {
		return nil, errors.New("configspace: space requires at least one dimension")
	}
	names := make(map[string]struct{}, len(dims))
	total := 1
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := names[d.Name]; dup {
			return nil, fmt.Errorf("configspace: duplicate dimension name %q", d.Name)
		}
		names[d.Name] = struct{}{}
		if total > math.MaxInt/len(d.Values) {
			return nil, fmt.Errorf("configspace: cross-product size overflows int at dimension %q", d.Name)
		}
		total *= len(d.Values)
	}

	copied := copyDims(dims)
	s := &Space{dims: copied, total: total, strides: make([]int, len(copied))}
	stride := 1
	for d := len(copied) - 1; d >= 0; d-- {
		s.strides[d] = stride
		stride *= len(copied[d].Values)
	}
	if filter == nil {
		return s, nil
	}

	indices := make([]int, len(copied))
	scratch := make([]int, len(copied))
	for flat := 0; flat < total; flat++ {
		copy(scratch, indices)
		if filter(scratch) {
			s.accepted = append(s.accepted, int64(flat))
		}
		advanceIndices(indices, copied)
	}
	switch len(s.accepted) {
	case 0:
		return nil, fmt.Errorf("configspace: filter rejected all %d combinations of the cross-product: %w", total, ErrEmptySpace)
	case total:
		// The filter kept everything: the space is the whole cross-product.
		s.accepted = nil
	default:
		s.total = len(s.accepted)
	}
	return s, nil
}

func copyDims(dims []Dimension) []Dimension {
	copied := make([]Dimension, len(dims))
	for i, d := range dims {
		copied[i] = Dimension{
			Name:   d.Name,
			Values: append([]float64(nil), d.Values...),
			Labels: append([]string(nil), d.Labels...),
		}
	}
	return copied
}

// advanceIndices increments a mixed-radix counter over the dimensions'
// value indices (lexicographic order).
func advanceIndices(indices []int, dims []Dimension) {
	for d := len(indices) - 1; d >= 0; d-- {
		indices[d]++
		if indices[d] < len(dims[d].Values) {
			return
		}
		indices[d] = 0
	}
}

// Size returns the number of configurations in the space.
func (s *Space) Size() int { return s.total }

// NumDimensions returns the number of dimensions of the space.
func (s *Space) NumDimensions() int { return len(s.dims) }

// Dimensions returns a copy of the space's dimensions.
func (s *Space) Dimensions() []Dimension {
	return copyDims(s.dims)
}

// Dimension returns the d-th dimension.
func (s *Space) Dimension(d int) (Dimension, error) {
	if d < 0 || d >= len(s.dims) {
		return Dimension{}, fmt.Errorf("configspace: dimension index %d out of range [0,%d)", d, len(s.dims))
	}
	return copyDims(s.dims[d : d+1])[0], nil
}

// checkID reports an out-of-range configuration ID.
func (s *Space) checkID(id int) error {
	if id < 0 || id >= s.total {
		return fmt.Errorf("configspace: config id %d out of range [0,%d)", id, s.total)
	}
	return nil
}

// flatOf returns the flat cross-product index of the configuration with the
// given dense ID.
func (s *Space) flatOf(id int) int {
	if s.accepted != nil {
		return int(s.accepted[id])
	}
	return id
}

// decodeIndices writes the per-dimension value indices of the given flat
// cross-product index into dst (which must have NumDimensions entries).
func (s *Space) decodeIndices(flat int, dst []int) {
	for d := range s.dims {
		dst[d] = (flat / s.strides[d]) % len(s.dims[d].Values)
	}
}

// Config returns the configuration with the given ID, decoded into slices
// owned by the caller.
func (s *Space) Config(id int) (Config, error) {
	if err := s.checkID(id); err != nil {
		return Config{}, err
	}
	cfg := Config{
		ID:       id,
		Indices:  make([]int, len(s.dims)),
		Features: make([]float64, len(s.dims)),
	}
	s.decodeIndices(s.flatOf(id), cfg.Indices)
	for d, idx := range cfg.Indices {
		cfg.Features[d] = s.dims[d].Values[idx]
	}
	return cfg, nil
}

// Configs decodes every configuration of the space. It allocates the whole
// space and is meant for paper-scale spaces, tests and tools; full-space
// sweeps use ForEachBlock.
func (s *Space) Configs() []Config {
	out := make([]Config, s.total)
	for id := range out {
		out[id], _ = s.Config(id) // every id < Size, so Config cannot fail
	}
	return out
}

// IDs returns the IDs of all configurations in the space.
func (s *Space) IDs() []int {
	out := make([]int, s.total)
	for i := range out {
		out[i] = i
	}
	return out
}

// IDOfIndices returns the dense configuration ID of the given per-dimension
// value indices, or false when the combination is not part of the (possibly
// filtered) space. It answers in O(1) on unfiltered spaces and O(log n) on
// filtered ones.
func (s *Space) IDOfIndices(indices []int) (int, bool) {
	if len(indices) != len(s.dims) {
		return 0, false
	}
	flat := 0
	for d, idx := range indices {
		if idx < 0 || idx >= len(s.dims[d].Values) {
			return 0, false
		}
		flat += idx * s.strides[d]
	}
	if s.accepted == nil {
		return flat, true
	}
	if id, found := slices.BinarySearch(s.accepted, int64(flat)); found {
		return id, true
	}
	return 0, false
}

// NearestID returns the ID of the configuration closest to the target index
// vector under the normalized index distance Σ_d ((i_d − t_d) / (|V_d| − 1))²,
// among the configurations skip does not exclude (a nil skip excludes none).
// Ties break toward the lower ID. Returns false when the target is out of
// range or every configuration is skipped.
//
// The target itself answers in O(log n) when it is part of the space and not
// skipped. Otherwise the index grid is searched best-first around the target
// (see gridFrontier), so the cost grows with the number of grid points closer
// than the answer, not with the size of the space.
func (s *Space) NearestID(target []int, skip func(id int) bool) (int, bool) {
	if len(target) != len(s.dims) {
		return 0, false
	}
	for d, idx := range target {
		if idx < 0 || idx >= len(s.dims[d].Values) {
			return 0, false
		}
	}
	admissible := func(indices []int) (int, bool) {
		id, ok := s.IDOfIndices(indices)
		return id, ok && (skip == nil || !skip(id))
	}
	// Distance 0 belongs to the target alone, so it is the unique minimum.
	if id, ok := admissible(target); ok {
		return id, true
	}

	indices := make([]int, len(s.dims))
	frontier := gridFrontier{{ranks: make([]int, len(s.dims))}}
	best, bestDist := -1, 0.0
	for len(frontier) > 0 {
		p := heap.Pop(&frontier).(gridPoint)
		if best >= 0 && p.dist > bestDist {
			break
		}
		s.rankedPoint(target, p.ranks, indices)
		if id, ok := admissible(indices); ok && (best < 0 || id < best) {
			best, bestDist = id, p.dist
		}
		for d := p.last; d < len(p.ranks); d++ {
			if p.ranks[d]+1 == len(s.dims[d].Values) {
				continue
			}
			child := append([]int(nil), p.ranks...)
			child[d]++
			heap.Push(&frontier, gridPoint{dist: s.rankedPoint(target, child, indices), ranks: child, last: d})
		}
	}
	return best, best >= 0
}

// gridPoint is a point of the index grid around a NearestID target: ranks[d]
// says its value index on dimension d is the ranks[d]-th closest to the
// target's (rankedIndex), and last is its last nonzero rank (0 for the
// target). Each point but the target has one parent — itself with ranks[last]
// decremented — whose distance is no larger (rounding is monotone), so a
// point's children raise one rank at or after last.
type gridPoint struct {
	dist  float64
	ranks []int
	last  int
}

// gridFrontier is a min-heap of grid points by distance. Popping it while
// pushing each popped point's children visits the grid in nondecreasing
// distance, each point once.
type gridFrontier []gridPoint

func (f gridFrontier) Len() int           { return len(f) }
func (f gridFrontier) Less(i, j int) bool { return f[i].dist < f[j].dist }
func (f gridFrontier) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *gridFrontier) Push(x any)        { *f = append(*f, x.(gridPoint)) }
func (f *gridFrontier) Pop() any {
	old := *f
	p := old[len(old)-1]
	*f = old[:len(old)-1]
	return p
}

// rankedPoint writes the index vector of the grid point with the given ranks
// around target into indices and returns its normalized distance from target,
// summed in dimension order.
func (s *Space) rankedPoint(target, ranks, indices []int) float64 {
	dist := 0.0
	for d, r := range ranks {
		m := len(s.dims[d].Values)
		indices[d] = rankedIndex(target[d], m, r)
		span := float64(m - 1)
		if span == 0 {
			span = 1
		}
		delta := float64(indices[d]-target[d]) / span
		dist += delta * delta
	}
	return dist
}

// rankedIndex returns the r-th closest index to t among [0, m), the lower one
// first on ties: t, t−1, t+1, t−2, t+2, …, then the rest of the longer side.
func rankedIndex(t, m, r int) int {
	paired := min(t, m-1-t)
	switch {
	case r <= 2*paired && r%2 == 1:
		return t - (r+1)/2
	case r <= 2*paired:
		return t + r/2
	case t > m-1-t:
		return t - (r - paired)
	default:
		return t + (r - paired)
	}
}

// Lookup finds the configuration with the given per-dimension indices, or
// reports that it is not part of the (possibly filtered) space.
func (s *Space) Lookup(indices []int) (Config, bool) {
	id, ok := s.IDOfIndices(indices)
	if !ok {
		return Config{}, false
	}
	cfg, err := s.Config(id)
	if err != nil {
		return Config{}, false
	}
	return cfg, true
}

// Describe renders the configuration as a human readable string using the
// dimension labels, e.g. "vm_type=t2.xlarge n_workers=8 learning_rate=0.001".
func (s *Space) Describe(c Config) string {
	parts := make([]string, 0, len(s.dims))
	for d := range s.dims {
		if d >= len(c.Indices) {
			break
		}
		parts = append(parts, fmt.Sprintf("%s=%s", s.dims[d].Name, s.dims[d].Label(c.Indices[d])))
	}
	return strings.Join(parts, " ")
}

// AppendIndices appends the per-dimension value indices of the configuration
// with the given ID to dst and returns the extended slice, so a caller
// decoding every configuration can reuse one buffer.
func (s *Space) AppendIndices(dst []int, id int) ([]int, error) {
	if err := s.checkID(id); err != nil {
		return dst, err
	}
	n := len(dst)
	dst = slices.Grow(dst, len(s.dims))[:n+len(s.dims)]
	s.decodeIndices(s.flatOf(id), dst[n:])
	return dst, nil
}

// AppendFeatures appends the feature vector of the configuration with the
// given ID to dst and returns the extended slice. It lets callers batch many
// decoded rows into one arena without per-row allocations.
func (s *Space) AppendFeatures(dst []float64, id int) ([]float64, error) {
	if err := s.checkID(id); err != nil {
		return dst, err
	}
	flat := s.flatOf(id)
	for d := range s.dims {
		dst = append(dst, s.dims[d].Values[(flat/s.strides[d])%len(s.dims[d].Values)])
	}
	return dst, nil
}

// FeatureColumns decodes the column-major feature matrix of the whole space:
// FeatureColumns()[d][id] is feature d of the configuration with the given
// ID. The matrix is freshly allocated and owned by the caller. Like Configs it
// is meant for paper-scale spaces, tests and tools; full-space sweeps use
// ForEachBlock.
func (s *Space) FeatureColumns() [][]float64 {
	flat := make([]float64, len(s.dims)*s.total)
	cols := make([][]float64, len(s.dims))
	for d := range cols {
		cols[d] = flat[d*s.total : (d+1)*s.total]
	}
	_ = s.ForEachBlock(0, func(b Block) error { // the callback never fails
		for d, col := range b.Cols {
			copy(cols[d][b.Start:], col)
		}
		return nil
	})
	return cols
}

// DefaultBlockSize is the block length used by ForEachBlock when the caller
// passes a non-positive size: large enough to amortize per-block overhead in
// batch prediction sweeps, small enough that a block of a wide space stays in
// cache.
const DefaultBlockSize = 4096

// Block is a contiguous run of configurations of a Space presented as a
// column-major feature view: Cols[d][i] is feature d of the configuration
// with ID Start+i. Blocks handed to ForEachBlock callbacks are read-only and
// only valid for the duration of the callback (one decode buffer is reused
// across blocks).
type Block struct {
	Start int
	Cols  [][]float64
}

// Len returns the number of configurations in the block.
func (b Block) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// ForEachBlock invokes fn over consecutive blocks of at most blockSize
// configurations covering the whole space in increasing ID order, each
// decoded into a buffer reused across callbacks. A non-positive blockSize
// selects DefaultBlockSize. fn errors abort the iteration.
func (s *Space) ForEachBlock(blockSize int, fn func(Block) error) error {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > s.total {
		blockSize = s.total
	}
	buf := make([]float64, len(s.dims)*blockSize)
	cols := make([][]float64, len(s.dims))
	indices := make([]int, len(s.dims))
	for start := 0; start < s.total; start += blockSize {
		n := min(blockSize, s.total-start)
		for d := range cols {
			cols[d] = buf[d*blockSize : d*blockSize+n]
		}
		if s.accepted == nil {
			// Unfiltered: advance a mixed-radix counter across the block
			// instead of div/mod-decoding every ID.
			s.decodeIndices(start, indices)
			for i := 0; i < n; i++ {
				for d, idx := range indices {
					cols[d][i] = s.dims[d].Values[idx]
				}
				advanceIndices(indices, s.dims)
			}
		} else {
			for i := 0; i < n; i++ {
				s.decodeIndices(int(s.accepted[start+i]), indices)
				for d, idx := range indices {
					cols[d][i] = s.dims[d].Values[idx]
				}
			}
		}
		if err := fn(Block{Start: start, Cols: cols}); err != nil {
			return err
		}
	}
	return nil
}
