// Package knob declares each search and hardware knob of a solve once:
// its /solve JSON field, its CLI flag, its default, its bounds and its
// usage line. /solve's request normalization, adflow's and adexp's flag
// sets, the default hardware and the search's zero-value resolvers all
// read this table, so no surface spells a default, a bound or an enum
// value itself, and a new knob is one row here.
package knob

import (
	"cmp"
	"encoding"
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Int is an integer knob. Zero means unset: the library and /solve read
// it as Def.
type Int[T int | int64] struct {
	JSON, Flag    string // /solve field and CLI flag; "" where no surface has one
	Def, Min, Max T
	Usage         string
}

// Enum is a knob whose Names[i] spells its type's value i, through the
// type's text methods. Its default is the type's zero value, which an
// omitted /solve field decodes to.
type Enum struct {
	JSON, Flag string
	Names      []string
	Usage      string
}

// The table. The upper bounds keep one request or command line from
// taking over a worker or the host: a solve at every limit is still a few
// seconds of search, and the NoC route table of a w×w mesh holds
// 2w³(w²−1)/3 link IDs, about 2.2e7 (89 MB) at w = 32 against 7.2e8
// (2.9 GB) at w = 64. -engines sets both mesh_w and mesh_h.
var (
	Batch     = Int[int]{"batch", "batch", 1, 1, 64, "inference batch size gathered into one atomic DAG"}
	Seed      = Int[int64]{"seed", "seed", 1, math.MinInt64, math.MaxInt64, "search seed"}
	SAIters   = Int[int]{"sa_iters", "sa-iters", 600, 1, 20000, "simulated-annealing iterations for atom generation"}
	Chains    = Int[int]{"chains", "chains", 1, 1, 16, "parallel annealing chains (deterministic for a fixed seed)"}
	MaxTiles  = Int[int]{"max_tiles", "", 1024, 1, 4096, "atom-count cap per layer"}
	Mode      = Enum{"mode", "mode", []string{"dp", "greedy"}, "scheduler: dp or greedy"}
	TimeoutMS = Int[int64]{"timeout_ms", "", 0, 0, math.MaxInt64, "per-request deadline, clamped to the server's"}

	MeshW       = Int[int]{"mesh_w", "engines", 8, 1, 32, "engine mesh side (engines x engines grid)"}
	MeshH       = Int[int]{"mesh_h", "", 8, 1, 32, "engine mesh rows"}
	LinkBytes   = Int[int]{"link_bytes", "", 32, 1, 1024, "NoC link width in bytes per cycle"}
	BufferBytes = Int[int]{"buffer_bytes", "buffer", 128 << 10, 1, 1 << 30, "per-engine buffer bytes"}
	Dataflow    = Enum{"dataflow", "dataflow", []string{"kcp", "yxp"}, "engine dataflow: kcp (NVDLA-style) or yxp (ShiDianNao-style)"}
)

// Or is the library's zero-value resolver: v when set (non-zero and at
// least Min), else Def.
func (k Int[T]) Or(v T) T {
	if v == 0 || v < k.Min {
		return k.Def
	}
	return v
}

// Normalize replaces an omitted /solve value with Def and reports a value
// outside [Min, Max], naming the field.
func (k Int[T]) Normalize(v *T) error {
	*v = cmp.Or(*v, k.Def)
	return k.check(k.JSON, *v)
}

// Check reports a flag value outside [Min, Max], naming the flag.
func (k Int[T]) Check(v T) error { return k.check("-"+k.Flag, v) }

func (k Int[T]) check(name string, v T) error {
	if v < k.Min || v > k.Max {
		return fmt.Errorf("%s %d out of range [%d,%d]", name, v, k.Min, k.Max)
	}
	return nil
}

// Var defines the knob's flag on fs, stored in p. Its default is Def, or
// *p when the caller set it first: an explicit override, like adexp's
// experiment budget.
func (k Int[T]) Var(fs *flag.FlagSet, p *T) {
	switch q := any(p).(type) {
	case *int:
		fs.IntVar(q, k.Flag, int(k.Or(*p)), k.Usage)
	case *int64:
		fs.Int64Var(q, k.Flag, int64(k.Or(*p)), k.Usage)
	}
}

// Var defines the knob's flag on fs, stored in p and parsed by p's
// UnmarshalText; *p's value is the default.
func (k Enum) Var(fs *flag.FlagSet, p interface {
	encoding.TextMarshaler
	encoding.TextUnmarshaler
}) {
	fs.TextVar(p, k.Flag, p, k.Usage)
}

// Text returns value v's spelling.
func (k Enum) Text(v int) ([]byte, error) {
	if v < 0 || v >= len(k.Names) {
		return nil, fmt.Errorf("%s %d has no spelling", k.JSON, v)
	}
	return []byte(k.Names[v]), nil
}

// Parse sets *v to the value b spells.
func (k Enum) Parse(b []byte, v *int) error {
	i := slices.Index(k.Names, string(b))
	if i < 0 {
		return fmt.Errorf("unknown %s %q (want %s)", k.JSON, b, strings.Join(k.Names, " or "))
	}
	*v = i
	return nil
}
