package dfg

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEvalBinAll(t *testing.T) {
	cases := []struct {
		k    BinKind
		a, b int64
		want int64
	}{
		{BinAdd, 2, 3, 5},
		{BinSub, 2, 3, -1},
		{BinMul, -4, 3, -12},
		{BinDiv, 7, 2, 3},
		{BinRem, 7, 2, 1},
		{BinAnd, 0b1100, 0b1010, 0b1000},
		{BinOr, 0b1100, 0b1010, 0b1110},
		{BinXor, 0b1100, 0b1010, 0b0110},
		{BinShl, 1, 4, 16},
		{BinShr, 256, 4, 16},
		{BinLt, 1, 2, 1},
		{BinLt, 2, 1, 0},
		{BinLe, 2, 2, 1},
		{BinGt, 3, 2, 1},
		{BinGe, 2, 3, 0},
		{BinEq, 5, 5, 1},
		{BinNe, 5, 5, 0},
		{BinMin, 3, -1, -1},
		{BinMax, 3, -1, 3},
	}
	for _, c := range cases {
		got, err := EvalBin(c.k, c.a, c.b)
		if err != nil {
			t.Errorf("%v(%d,%d): %v", c.k, c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.k, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalBinDivRemZero(t *testing.T) {
	if _, err := EvalBin(BinDiv, 1, 0); err == nil {
		t.Error("div by zero should error")
	}
	if _, err := EvalBin(BinRem, 1, 0); err == nil {
		t.Error("rem by zero should error")
	}
}

// TestMaxOutBoundsNumOut: the machines size each node's output-port
// ranges by MaxOut, so no op may have more ports, and some op has that
// many.
func TestMaxOutBoundsNumOut(t *testing.T) {
	most := 0
	for op := Op(0); op < numOps; op++ {
		most = max(most, NumOut(op))
	}
	if most != MaxOut {
		t.Errorf("the most output ports of any op is %d, MaxOut is %d", most, MaxOut)
	}
}

func TestPortEncoding(t *testing.T) {
	f := func(node int32, in uint8) bool {
		if node < 0 {
			node = -node
		}
		p := Port{Node: NodeID(node), In: int(in)}
		return DecodePort(EncodePort(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphConstruction(t *testing.T) {
	g := NewGraph("t")
	blk := g.AddBlock(0, BlockLoop, "L", true)
	if blk != 1 {
		t.Fatalf("block id = %d", blk)
	}
	add := g.AddNode(OpBin, 0, 2, "add")
	g.Node(add).Bin = BinAdd
	fwd := g.AddNode(OpForward, 0, 1, "out")
	g.Connect(add, 0, fwd, 0)
	g.SetConst(add, 1, 5)
	g.Inject(Port{Node: add, In: 0}, 1)

	n := g.Node(add)
	if len(n.Outs[0]) != 1 || n.Outs[0][0] != (Port{Node: fwd, In: 0}) {
		t.Errorf("edge wiring wrong: %v", n.Outs)
	}
	if !n.ConstIn[1].Valid || n.ConstIn[1].V != 5 {
		t.Errorf("const wiring wrong: %v", n.ConstIn)
	}
	if g.NumNodes() != 2 || g.MaxInputs() != 2 {
		t.Errorf("counts wrong: %d nodes, %d maxin", g.NumNodes(), g.MaxInputs())
	}
	if got := g.BlockNodes(0); len(got) != 2 {
		t.Errorf("BlockNodes = %v", got)
	}
}

// tiny valid tagged graph: entry -> free(root)
func validTaggedGraph() *Graph {
	g := NewGraph("valid")
	fwd := g.AddNode(OpForward, 0, 1, "entry")
	free := g.AddNode(OpFree, 0, 1, "rootfree")
	g.Node(free).Space = 0
	g.Connect(fwd, 0, free, 0)
	g.Inject(Port{Node: fwd, In: 0}, 0)
	g.RootFree = free
	return g
}

func TestValidateAcceptsMinimal(t *testing.T) {
	if err := validTaggedGraph().Validate(ModeTagged); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateRejectsMissingRootFree(t *testing.T) {
	g := validTaggedGraph()
	g.RootFree = InvalidNode
	if err := g.Validate(ModeTagged); err == nil || !strings.Contains(err.Error(), "root free") {
		t.Errorf("want root-free error, got %v", err)
	}
}

func TestValidateRejectsBadEdge(t *testing.T) {
	g := validTaggedGraph()
	g.Connect(0, 0, 57, 0)
	if err := g.Validate(ModeTagged); err == nil || !strings.Contains(err.Error(), "invalid node") {
		t.Errorf("want invalid-node error, got %v", err)
	}
}

func TestValidateRejectsEdgeToConstPort(t *testing.T) {
	g := validTaggedGraph()
	add := g.AddNode(OpBin, 0, 2, "add")
	g.SetConst(add, 0, 1)
	g.SetConst(add, 1, 2)
	g.Connect(0, 0, add, 1)
	if err := g.Validate(ModeTagged); err == nil || !strings.Contains(err.Error(), "const-bound") {
		t.Errorf("want const-bound error, got %v", err)
	}
}

func TestValidateRejectsAllConstNode(t *testing.T) {
	g := validTaggedGraph()
	add := g.AddNode(OpBin, 0, 2, "add")
	g.SetConst(add, 0, 1)
	g.SetConst(add, 1, 2)
	if err := g.Validate(ModeTagged); err == nil || !strings.Contains(err.Error(), "never fire") {
		t.Errorf("want never-fire error, got %v", err)
	}
}

func TestValidateRejectsTagOpsInOrdered(t *testing.T) {
	g := NewGraph("ord")
	fwd := g.AddNode(OpForward, 0, 1, "entry")
	ext := g.AddNode(OpExtractTag, 0, 1, "xt")
	g.Connect(fwd, 0, ext, 0)
	g.Inject(Port{Node: fwd, In: 0}, 0)
	if err := g.Validate(ModeOrdered); err == nil || !strings.Contains(err.Error(), "tag-management") {
		t.Errorf("want tag-management error, got %v", err)
	}
}

func TestValidateRejectsMultiProducerInOrdered(t *testing.T) {
	g := NewGraph("ord2")
	a := g.AddNode(OpForward, 0, 1, "a")
	b := g.AddNode(OpForward, 0, 1, "b")
	c := g.AddNode(OpForward, 0, 1, "c")
	g.Connect(a, 0, c, 0)
	g.Connect(b, 0, c, 0)
	g.Inject(Port{Node: a, In: 0}, 0)
	g.Inject(Port{Node: b, In: 0}, 0)
	if err := g.Validate(ModeOrdered); err == nil || !strings.Contains(err.Error(), "producers") {
		t.Errorf("want multi-producer error, got %v", err)
	}
}

func TestValidateRejectsMergeInTagged(t *testing.T) {
	g := validTaggedGraph()
	m := g.AddNode(OpMerge, 0, 3, "m")
	g.Connect(0, 0, m, 0)
	g.Connect(0, 0, m, 1)
	g.Connect(0, 0, m, 2)
	if err := g.Validate(ModeTagged); err == nil || !strings.Contains(err.Error(), "merge op in tagged") {
		t.Errorf("want merge error, got %v", err)
	}
}

func TestDotOutput(t *testing.T) {
	g := validTaggedGraph()
	dot := g.Dot()
	for _, want := range []string{"digraph", "cluster_blk0", "n0", "forward"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := validTaggedGraph()
	s := g.ComputeStats()
	if s.Nodes != 2 || s.ByOp[OpForward] != 1 || s.ByOp[OpFree] != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TagOps != 1 || s.EdgeCnt != 1 {
		t.Errorf("tagops=%d edges=%d", s.TagOps, s.EdgeCnt)
	}
}
