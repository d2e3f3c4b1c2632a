// Package apps defines the paper's seven benchmark workloads (Table II) in
// the mini-IR, together with their input generation and native-Go
// validation oracles.
//
// Dense kernels (dmv, dmm, dconv) run on random inputs, as in the paper.
// Sparse kernels run on synthetic matrices standing in for the SuiteSparse
// inputs (see DESIGN.md §5): smv on a banded FEM-like matrix
// (DNVS/trdheim), spmspv on a skewed-degree matrix (DIMACS10/M6 subset),
// spmspm on a uniform random matrix at the paper's 5% density, and tc on a
// Watts–Strogatz navigable small world.
//
// The sparse kernels use merge-join formulations (two-pointer loops over
// sorted index lists), giving the data-dependent control flow the paper's
// evaluation stresses, with every output written exactly once so no memory
// ordering classes are needed.
package apps

import (
	"fmt"
	"sync"

	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/graphgen"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/sparse"
)

// App is one runnable workload: a program, its input image, and an oracle
// that validates outputs produced by any of the simulated architectures.
// An App also owns its program's two compiled graphs (Tagged, Ordered), so
// Prog and Args must not change once either has been asked for.
type App struct {
	Name        string
	Description string
	Prog        *prog.Program
	Args        []int64
	Image       *mem.Image
	// Check validates the final memory image and entry return value
	// against the native reference.
	Check func(im *mem.Image, ret int64) error
	// Inner and Outer name the innermost (hot) and outermost loop blocks,
	// for per-region tag tuning experiments (Fig. 18).
	Inner, Outer string

	lowerOnce       sync.Once
	tagged, ordered func() (*dfg.Graph, error)
}

// NewImage returns a fresh copy of the input image for one run.
func (a *App) NewImage() *mem.Image { return a.Image.Clone() }

// Tagged returns the program lowered for the tagged machines (tyr and
// unordered). The first call compiles it and every later call returns the
// same graph: like the paper's static dataflow graph, it is shared by
// every run of the app, so callers must not modify it. Callers racing the
// first call all wait for that one compile. A compile that panics panics
// again, with the same value, on every later call.
func (a *App) Tagged() (*dfg.Graph, error) {
	a.lowerOnce.Do(a.initLowerings)
	return a.tagged()
}

// Ordered returns the program lowered for ordered dataflow, compiled once
// and shared exactly as Tagged's graph is.
func (a *App) Ordered() (*dfg.Graph, error) {
	a.lowerOnce.Do(a.initLowerings)
	return a.ordered()
}

func (a *App) initLowerings() {
	opts := compile.Options{EntryArgs: a.Args}
	a.tagged = sync.OnceValues(func() (*dfg.Graph, error) { return compile.Tagged(a.Prog, opts) })
	a.ordered = sync.OnceValues(func() (*dfg.Graph, error) { return compile.Ordered(a.Prog, opts) })
}

// Scale selects input sizes. The paper's inputs (50M–1B dynamic
// instructions) are scaled down for a software token-level simulator; the
// claims under test are ratios and trace shapes, which these sizes already
// exhibit (EXPERIMENTS.md quantifies this).
type Scale int

const (
	// ScaleTiny: unit-test sizes (thousands of dynamic instructions).
	ScaleTiny Scale = iota
	// ScaleSmall: harness default (tens to hundreds of thousands).
	ScaleSmall
	// ScaleMedium: benchmark sizes (hundreds of thousands to millions).
	ScaleMedium
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	}
	return "?"
}

// Suite returns all seven workloads at the given scale, in the paper's
// presentation order.
func Suite(s Scale) []*App {
	switch s {
	case ScaleTiny:
		return []*App{
			Dmv(16, 16, 1), Dmm(8, 2), Dconv(12, 12, 3, 3),
			Smv(32, 3, 4, 4), Spmspv(32, 96, 8, 5),
			Spmspm(12, 10, 6), Tc(24, 4, 0.2, 7),
		}
	case ScaleMedium:
		return []*App{
			Dmv(160, 160, 1), Dmm(40, 2), Dconv(64, 64, 7, 3),
			Smv(512, 8, 7, 4), Spmspv(768, 3000, 48, 5),
			Spmspm(56, 5, 6), Tc(384, 8, 0.2, 7),
		}
	default: // ScaleSmall
		return []*App{
			Dmv(64, 64, 1), Dmm(20, 2), Dconv(28, 28, 5, 3),
			Smv(160, 6, 6, 4), Spmspv(256, 1024, 24, 5),
			Spmspm(28, 6, 6), Tc(128, 6, 0.2, 7),
		}
	}
}

// Find returns the named app from a suite.
func Find(suite []*App, name string) *App {
	for _, a := range suite {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// checkRegion compares one output region against expected values.
func checkRegion(im *mem.Image, region string, want []int64) error {
	got := im.WordsByName(region)
	if len(got) != len(want) {
		return fmt.Errorf("region %q has %d words, want %d", region, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("region %q[%d] = %d, want %d", region, i, got[i], want[i])
		}
	}
	return nil
}

// loadCSR lays a CSR matrix into three regions of an image.
func loadCSR(im *mem.Image, prefix string, c *sparse.CSR) {
	im.SetRegion(prefix+".rowptr", c.RowPtr)
	im.SetRegion(prefix+".col", c.Col)
	im.SetRegion(prefix+".val", c.Val)
}

// declareCSR declares the regions for a CSR matrix.
func declareCSR(p *prog.Program, prefix string, c *sparse.CSR) {
	p.DeclareMem(prefix+".rowptr", len(c.RowPtr))
	p.DeclareMem(prefix+".col", c.NNZ())
	p.DeclareMem(prefix+".val", c.NNZ())
}

// ---- dmv: dense matrix-vector multiplication (Fig. 3 of the paper) ----

// Dmv builds w = A*b for a dense m x n matrix.
func Dmv(m, n int, seed int64) *App {
	a := sparse.DenseVec(m*n, seed)
	b := sparse.DenseVec(n, seed+1)

	p := prog.NewProgram("dmv", "main")
	p.DeclareMem("A", m*n)
	p.DeclareMem("B", n)
	p.DeclareMem("W", m)
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("dmv.outer", "i", prog.C(0), prog.C(int64(m)), nil,
			prog.LetS("base", prog.Mul(prog.V("i"), prog.C(int64(n)))),
			prog.ForRange("dmv.inner", "j", prog.C(0), prog.C(int64(n)),
				[]prog.LoopVar{prog.LV("w", prog.C(0))},
				prog.Set("w", prog.Add(prog.V("w"),
					prog.Mul(prog.Ld("A", prog.Add(prog.V("base"), prog.V("j"))),
						prog.Ld("B", prog.V("j"))))),
			),
			prog.St("W", prog.V("i"), prog.V("w")),
		),
	)

	im := prog.DefaultImage(p)
	im.SetRegion("A", a)
	im.SetRegion("B", b)

	want := make([]int64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want[i] += a[i*n+j] * b[j]
		}
	}
	return &App{
		Name:        "dmv",
		Description: fmt.Sprintf("dense matrix-vector, %dx%d", m, n),
		Prog:        p,
		Image:       im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "W", want)
		},
		Inner: "dmv.inner",
		Outer: "dmv.outer",
	}
}

// ---- dmm: dense matrix-matrix multiplication ----

// Dmm builds C = A*B for dense n x n matrices.
func Dmm(n int, seed int64) *App {
	a := sparse.DenseVec(n*n, seed)
	b := sparse.DenseVec(n*n, seed+1)

	p := prog.NewProgram("dmm", "main")
	p.DeclareMem("A", n*n)
	p.DeclareMem("B", n*n)
	p.DeclareMem("C", n*n)
	nn := prog.C(int64(n))
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("dmm.i", "i", prog.C(0), nn, nil,
			prog.LetS("arow", prog.Mul(prog.V("i"), nn)),
			prog.ForRange("dmm.j", "j", prog.C(0), nn, nil,
				prog.ForRange("dmm.k", "k", prog.C(0), nn,
					[]prog.LoopVar{prog.LV("acc", prog.C(0))},
					prog.Set("acc", prog.Add(prog.V("acc"),
						prog.Mul(prog.Ld("A", prog.Add(prog.V("arow"), prog.V("k"))),
							prog.Ld("B", prog.Add(prog.Mul(prog.V("k"), nn), prog.V("j")))))),
				),
				prog.St("C", prog.Add(prog.V("arow"), prog.V("j")), prog.V("acc")),
			),
		),
	)

	im := prog.DefaultImage(p)
	im.SetRegion("A", a)
	im.SetRegion("B", b)

	want := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			want[i*n+j] = s
		}
	}
	return &App{
		Name:        "dmm",
		Description: fmt.Sprintf("dense matrix-matrix, %dx%d", n, n),
		Prog:        p,
		Image:       im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "C", want)
		},
		Inner: "dmm.k",
		Outer: "dmm.i",
	}
}

// ---- dconv: dense 2D convolution ----

// Dconv builds a valid 2D convolution of an h x w image with a k x k
// filter.
func Dconv(h, w, k int, seed int64) *App {
	img := sparse.DenseVec(h*w, seed)
	filt := sparse.DenseVec(k*k, seed+1)
	oh, ow := h-k+1, w-k+1

	p := prog.NewProgram("dconv", "main")
	p.DeclareMem("img", h*w)
	p.DeclareMem("filt", k*k)
	p.DeclareMem("out", oh*ow)
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("dconv.y", "y", prog.C(0), prog.C(int64(oh)), nil,
			prog.ForRange("dconv.x", "x", prog.C(0), prog.C(int64(ow)), nil,
				prog.ForRange("dconv.fy", "fy", prog.C(0), prog.C(int64(k)),
					[]prog.LoopVar{prog.LV("acc", prog.C(0))},
					prog.LetS("irow", prog.Mul(prog.Add(prog.V("y"), prog.V("fy")), prog.C(int64(w)))),
					prog.LetS("frow", prog.Mul(prog.V("fy"), prog.C(int64(k)))),
					prog.ForRange("dconv.fx", "fx", prog.C(0), prog.C(int64(k)),
						[]prog.LoopVar{prog.LV("acc", prog.V("acc"))},
						prog.Set("acc", prog.Add(prog.V("acc"),
							prog.Mul(prog.Ld("img", prog.Add(prog.V("irow"), prog.Add(prog.V("x"), prog.V("fx")))),
								prog.Ld("filt", prog.Add(prog.V("frow"), prog.V("fx")))))),
					),
				),
				prog.St("out", prog.Add(prog.Mul(prog.V("y"), prog.C(int64(ow))), prog.V("x")), prog.V("acc")),
			),
		),
	)

	im := prog.DefaultImage(p)
	im.SetRegion("img", img)
	im.SetRegion("filt", filt)

	want := make([]int64, oh*ow)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			var s int64
			for fy := 0; fy < k; fy++ {
				for fx := 0; fx < k; fx++ {
					s += img[(y+fy)*w+(x+fx)] * filt[fy*k+fx]
				}
			}
			want[y*ow+x] = s
		}
	}
	return &App{
		Name:        "dconv",
		Description: fmt.Sprintf("dense 2D convolution, image %dx%d filter %dx%d", h, w, k, k),
		Prog:        p,
		Image:       im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "out", want)
		},
		Inner: "dconv.fx",
		Outer: "dconv.y",
	}
}

// ---- smv: sparse matrix-vector (CSR gather) ----

// Smv builds y = A*x for a banded n x n CSR matrix (FEM-like structure
// standing in for DNVS/trdheim) and dense x.
func Smv(n, halfBand, perRow int, seed int64) *App {
	a := sparse.Banded(n, halfBand, perRow, seed)
	x := sparse.DenseVec(n, seed+1)

	p := prog.NewProgram("smv", "main")
	declareCSR(p, "A", a)
	p.DeclareMem("x", n)
	p.DeclareMem("y", n)
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("smv.rows", "i", prog.C(0), prog.C(int64(n)), nil,
			prog.LetS("end", prog.Ld("A.rowptr", prog.Add(prog.V("i"), prog.C(1)))),
			prog.ForRange("smv.nnz", "ptr", prog.Ld("A.rowptr", prog.V("i")), prog.V("end"),
				[]prog.LoopVar{prog.LV("s", prog.C(0))},
				prog.Set("s", prog.Add(prog.V("s"),
					prog.Mul(prog.Ld("A.val", prog.V("ptr")),
						prog.Ld("x", prog.Ld("A.col", prog.V("ptr")))))),
			),
			prog.St("y", prog.V("i"), prog.V("s")),
		),
	)

	im := prog.DefaultImage(p)
	loadCSR(im, "A", a)
	im.SetRegion("x", x)

	want := sparse.SpMV(a, x)
	return &App{
		Name: "smv",
		Description: fmt.Sprintf("sparse matrix-vector, %dx%d banded, %d non-zeros",
			n, n, a.NNZ()),
		Prog:  p,
		Image: im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "y", want)
		},
		Inner: "smv.nnz",
		Outer: "smv.rows",
	}
}

// mergeJoinDot emits the two-pointer merge-join statements shared by the
// spmspv/spmspm/tc kernels: it scans (idxA[p], p in [p0,pEnd)) against
// (idxB[q], q in [q0,qEnd)) and on index matches runs onMatch statements
// (which may use p and q). label names the loop block; carried lists extra
// carried variables threaded through.
func mergeJoinDot(label string, idxA, idxB string, p0, pEnd, q0, qEnd prog.Expr,
	carried []prog.LoopVar, onMatch ...prog.Stmt) prog.Stmt {
	vars := append([]prog.LoopVar{
		prog.LV("p", p0),
		prog.LV("q", q0),
	}, carried...)
	body := []prog.Stmt{
		prog.LetS("ia", prog.Ld(idxA, prog.V("p"))),
		prog.LetS("ib", prog.Ld(idxB, prog.V("q"))),
		prog.IfS(prog.Eq(prog.V("ia"), prog.V("ib")),
			append(append([]prog.Stmt{}, onMatch...),
				prog.Set("p", prog.Add(prog.V("p"), prog.C(1))),
				prog.Set("q", prog.Add(prog.V("q"), prog.C(1)))),
			[]prog.Stmt{
				prog.IfS(prog.Lt(prog.V("ia"), prog.V("ib")),
					[]prog.Stmt{prog.Set("p", prog.Add(prog.V("p"), prog.C(1)))},
					[]prog.Stmt{prog.Set("q", prog.Add(prog.V("q"), prog.C(1)))},
				),
			},
		),
	}
	return prog.Loop(label, vars,
		prog.And(prog.Lt(prog.V("p"), pEnd), prog.Lt(prog.V("q"), qEnd)),
		body...)
}

// ---- spmspv: sparse matrix x sparse vector ----

// Spmspv builds y = A*x where A is a skewed-degree sparse matrix
// (DIMACS10-like) and x a sparse vector, via per-row merge-joins.
func Spmspv(n, nnzMatrix, nnzVec int, seed int64) *App {
	a := sparse.SkewedDegrees(n, n, nnzMatrix/n+1, seed)
	x := sparse.RandomVec(n, nnzVec, seed+1)

	p := prog.NewProgram("spmspv", "main")
	declareCSR(p, "A", a)
	p.DeclareMem("xi", x.NNZ())
	p.DeclareMem("xv", x.NNZ())
	p.DeclareMem("y", n)
	xn := prog.C(int64(x.NNZ()))
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("spmspv.rows", "i", prog.C(0), prog.C(int64(n)), nil,
			prog.LetS("pend", prog.Ld("A.rowptr", prog.Add(prog.V("i"), prog.C(1)))),
			mergeJoinDot("spmspv.merge", "A.col", "xi",
				prog.Ld("A.rowptr", prog.V("i")), prog.V("pend"), prog.C(0), xn,
				[]prog.LoopVar{prog.LV("s", prog.C(0))},
				prog.Set("s", prog.Add(prog.V("s"),
					prog.Mul(prog.Ld("A.val", prog.V("p")), prog.Ld("xv", prog.V("q"))))),
			),
			prog.St("y", prog.V("i"), prog.V("s")),
		),
	)

	im := prog.DefaultImage(p)
	loadCSR(im, "A", a)
	im.SetRegion("xi", x.Idx)
	im.SetRegion("xv", x.Val)

	want := sparse.SpMSpV(a, x)
	return &App{
		Name: "spmspv",
		Description: fmt.Sprintf("sparse matrix-sparse vector, %dx%d, matrix nnz %d, vector nnz %d",
			n, n, a.NNZ(), x.NNZ()),
		Prog:  p,
		Image: im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "y", want)
		},
		Inner: "spmspv.merge",
		Outer: "spmspv.rows",
	}
}

// ---- spmspm: sparse matrix x sparse matrix ----

// Spmspm builds the dense product C = A*B of two random n x n sparse
// matrices at the given percent density, merge-joining A's rows against
// B's columns (B is pre-transposed, as a real implementation would).
func Spmspm(n, densityPct int, seed int64) *App {
	nnz := n * n * densityPct / 100
	a := sparse.Random(n, n, nnz, seed)
	b := sparse.Random(n, n, nnz, seed+1)
	bt := b.Transpose()

	p := prog.NewProgram("spmspm", "main")
	declareCSR(p, "A", a)
	declareCSR(p, "BT", bt)
	p.DeclareMem("C", n*n)
	nn := prog.C(int64(n))
	p.AddFunc("main", nil, prog.C(0),
		prog.ForRange("spmspm.i", "i", prog.C(0), nn, nil,
			prog.LetS("as", prog.Ld("A.rowptr", prog.V("i"))),
			prog.LetS("ae", prog.Ld("A.rowptr", prog.Add(prog.V("i"), prog.C(1)))),
			prog.ForRange("spmspm.j", "j", prog.C(0), nn, nil,
				prog.LetS("be", prog.Ld("BT.rowptr", prog.Add(prog.V("j"), prog.C(1)))),
				mergeJoinDot("spmspm.merge", "A.col", "BT.col",
					prog.V("as"), prog.V("ae"),
					prog.Ld("BT.rowptr", prog.V("j")), prog.V("be"),
					[]prog.LoopVar{prog.LV("s", prog.C(0))},
					prog.Set("s", prog.Add(prog.V("s"),
						prog.Mul(prog.Ld("A.val", prog.V("p")), prog.Ld("BT.val", prog.V("q"))))),
				),
				prog.St("C", prog.Add(prog.Mul(prog.V("i"), nn), prog.V("j")), prog.V("s")),
			),
		),
	)

	im := prog.DefaultImage(p)
	loadCSR(im, "A", a)
	loadCSR(im, "BT", bt)

	want := sparse.SpMSpM(a, b)
	return &App{
		Name: "spmspm",
		Description: fmt.Sprintf("sparse matrix-sparse matrix, %dx%d at %d%% density (nnz %d/%d)",
			n, n, densityPct, a.NNZ(), b.NNZ()),
		Prog:  p,
		Image: im,
		Check: func(im *mem.Image, _ int64) error {
			return checkRegion(im, "C", want)
		},
		Inner: "spmspm.merge",
		Outer: "spmspm.i",
	}
}

// ---- tc: triangle counting ----

// Tc builds triangle counting over a Watts–Strogatz small-world graph:
// for every edge (u,v) with u<v, count common neighbors w>v by
// merge-joining the sorted adjacency lists.
func Tc(nodes, k int, beta float64, seed int64) *App {
	g := graphgen.WattsStrogatz(nodes, k, beta, seed)

	p := prog.NewProgram("tc", "main")
	p.DeclareMem("G.rowptr", len(g.RowPtr))
	p.DeclareMem("G.col", g.NNZ())
	p.AddFunc("main", nil, prog.V("count"),
		prog.ForRange("tc.u", "u", prog.C(0), prog.C(int64(nodes)),
			[]prog.LoopVar{prog.LV("count", prog.C(0))},
			prog.LetS("us", prog.Ld("G.rowptr", prog.V("u"))),
			prog.LetS("ue", prog.Ld("G.rowptr", prog.Add(prog.V("u"), prog.C(1)))),
			prog.ForRange("tc.v", "ptr", prog.V("us"), prog.V("ue"),
				[]prog.LoopVar{prog.LV("count", prog.V("count"))},
				prog.LetS("v", prog.Ld("G.col", prog.V("ptr"))),
				prog.When(prog.Gt(prog.V("v"), prog.V("u")),
					prog.LetS("ve", prog.Ld("G.rowptr", prog.Add(prog.V("v"), prog.C(1)))),
					mergeJoinDot("tc.merge", "G.col", "G.col",
						prog.V("us"), prog.V("ue"),
						prog.Ld("G.rowptr", prog.V("v")), prog.V("ve"),
						[]prog.LoopVar{prog.LV("c", prog.C(0))},
						prog.When(prog.Gt(prog.V("ia"), prog.V("v")),
							prog.Set("c", prog.Add(prog.V("c"), prog.C(1))),
						),
					),
					prog.Set("count", prog.Add(prog.V("count"), prog.V("c"))),
				),
			),
		),
	)

	im := prog.DefaultImage(p)
	im.SetRegion("G.rowptr", g.RowPtr)
	im.SetRegion("G.col", g.Col)

	want := graphgen.TriangleCount(g)
	return &App{
		Name: "tc",
		Description: fmt.Sprintf("triangle counting, %d nodes, %d edges (small world)",
			nodes, graphgen.NumEdges(g)),
		Prog:  p,
		Image: im,
		Check: func(_ *mem.Image, ret int64) error {
			if ret != want {
				return fmt.Errorf("tc counted %d triangles, want %d", ret, want)
			}
			return nil
		},
		Inner: "tc.merge",
		Outer: "tc.u",
	}
}
