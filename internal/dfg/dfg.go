// Package dfg defines the dataflow-graph intermediate representation that
// every simulated architecture in this repository executes.
//
// A Graph is a set of static instruction Nodes wired by edges from output
// ports to input ports, grouped into concurrent Blocks (the paper's unit of
// tag management: a loop body, a function body, or the program root). The
// same Graph type represents both the tagged form used by TYR and naive
// unordered dataflow (with allocate/free/changeTag/extractTag/join linkage)
// and the untagged form used by ordered dataflow (with merge nodes and FIFO
// edges); which instructions appear depends on the compiler lowering.
//
// Tokens, tags, and firing rules live in the engines (internal/core for
// tagged execution, internal/ordered for FIFO execution); this package is
// purely the static program.
package dfg

import "fmt"

// NodeID identifies a static instruction. IDs are dense indices into
// Graph.Nodes.
type NodeID int32

// BlockID identifies a concurrent block. Block 0 is always the root.
type BlockID int32

// InvalidNode is the zero-ish sentinel for "no node".
const InvalidNode NodeID = -1

// Op enumerates the instruction set (Table I of the paper, plus the merge
// and forward utility ops needed by the ordered lowering and linkage).
type Op uint8

const (
	// OpBin is a two-input arithmetic/comparison instruction; the exact
	// operation is Node.Bin.
	OpBin Op = iota
	// OpSelect picks input 1 if input 0 is nonzero, else input 2. Both
	// sides are eagerly evaluated (predicated select, not control flow).
	OpSelect
	// OpLoad reads memory: input 0 is the address, optional input 1 is a
	// memory-ordering token. Output 0 is the value.
	OpLoad
	// OpStore writes memory: input 0 address, input 1 value, optional
	// input 2 ordering token. Output 0 is a control token (also the
	// next ordering token for its class).
	OpStore
	// OpSteer routes input 1 (data) to output 0 when input 0 (decider) is
	// nonzero, to output 1 otherwise. Output 2 is an unconditional control
	// token, required for the free barrier (Sec. IV-A).
	OpSteer
	// OpJoin is the n-input barrier: waits for all inputs, emits a copy of
	// input 0 on output 0.
	OpJoin
	// OpMerge (ordered dataflow only) pops input 0 as a decider; if zero it
	// forwards input 1, otherwise input 2. Unselected inputs are left
	// queued. Output 0 is the forwarded value.
	OpMerge
	// OpForward copies input 0 to output 0. Used for program entry points,
	// call-return landing sites, and wire fan-in normalization.
	OpForward
	// OpGate emits the value of input 1 when input 0 (a trigger whose
	// value is ignored) arrives. With a constant input 1 it materializes
	// a compile-time constant as one token per context/activation, e.g.
	// for branch arms that assign constants.
	OpGate
	// OpAllocate pops a tag from the free list of block Node.Space.
	// Input 0 is the request (carries the requesting context's tag),
	// input 1 is the readiness signal. Output 0 carries the new tag as
	// data; output 1 is the control token emitted when ready is consumed.
	// External marks allocates that enter the block from outside (they
	// must leave a spare tag for the tail-recursive self edge).
	OpAllocate
	// OpFree returns the tag of its single input token to the free list of
	// block Node.Space. No outputs.
	OpFree
	// OpChangeTag re-tags input 1 (data) with the tag carried as the data
	// payload of input 0, emitting the re-tagged token on output 0 (static
	// destinations) and a control token with the old tag on output 1.
	OpChangeTag
	// OpChangeTagDyn is OpChangeTag with a dynamic destination: input 2
	// carries an encoded (node, port) to which the re-tagged token is
	// routed (used for function returns to arbitrary callers). Output 0
	// has no static destinations; output 1 is the control token.
	OpChangeTagDyn
	// OpExtractTag emits its input's tag as data: <t, _> -> <t, t>.
	OpExtractTag

	numOps
)

var opNames = [numOps]string{
	OpBin:          "bin",
	OpSelect:       "select",
	OpLoad:         "load",
	OpStore:        "store",
	OpSteer:        "steer",
	OpJoin:         "join",
	OpMerge:        "merge",
	OpForward:      "forward",
	OpGate:         "gate",
	OpAllocate:     "allocate",
	OpFree:         "free",
	OpChangeTag:    "changeTag",
	OpChangeTagDyn: "changeTagDyn",
	OpExtractTag:   "extractTag",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// BinKind enumerates binary operations for OpBin.
type BinKind uint8

const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinLt
	BinLe
	BinGt
	BinGe
	BinEq
	BinNe
	BinMin
	BinMax

	numBinKinds
)

var binNames = [numBinKinds]string{
	BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinRem: "%",
	BinAnd: "&", BinOr: "|", BinXor: "^", BinShl: "<<", BinShr: ">>",
	BinLt: "<", BinLe: "<=", BinGt: ">", BinGe: ">=", BinEq: "==",
	BinNe: "!=", BinMin: "min", BinMax: "max",
}

func (b BinKind) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// EvalBin computes a binary operation. Division or remainder by zero is an
// error (a program bug surfaced by the simulator rather than a panic).
func EvalBin(k BinKind, a, b int64) (int64, error) {
	switch k {
	case BinAdd:
		return a + b, nil
	case BinSub:
		return a - b, nil
	case BinMul:
		return a * b, nil
	case BinDiv:
		if b == 0 {
			return 0, fmt.Errorf("dfg: division by zero (%d / 0)", a)
		}
		return a / b, nil
	case BinRem:
		if b == 0 {
			return 0, fmt.Errorf("dfg: remainder by zero (%d %% 0)", a)
		}
		return a % b, nil
	case BinAnd:
		return a & b, nil
	case BinOr:
		return a | b, nil
	case BinXor:
		return a ^ b, nil
	case BinShl:
		return a << uint64(b&63), nil
	case BinShr:
		return a >> uint64(b&63), nil
	case BinLt:
		return boolWord(a < b), nil
	case BinLe:
		return boolWord(a <= b), nil
	case BinGt:
		return boolWord(a > b), nil
	case BinGe:
		return boolWord(a >= b), nil
	case BinEq:
		return boolWord(a == b), nil
	case BinNe:
		return boolWord(a != b), nil
	case BinMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case BinMax:
		if a > b {
			return a, nil
		}
		return b, nil
	}
	return 0, fmt.Errorf("dfg: unknown binary op %d", k)
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Port addresses one input port of one node.
type Port struct {
	Node NodeID
	In   int
}

func (p Port) String() string { return fmt.Sprintf("n%d.%d", p.Node, p.In) }

// EncodePort packs a Port into a token payload for dynamic routing
// (OpChangeTagDyn destinations). Input ports are small, so 8 bits suffice.
func EncodePort(p Port) int64 { return int64(p.Node)<<8 | int64(p.In&0xff) }

// DecodePort unpacks an EncodePort payload.
func DecodePort(v int64) Port { return Port{Node: NodeID(v >> 8), In: int(v & 0xff)} }

// ConstOperand is an input port bound to a compile-time constant instead of
// an edge. Constant operands never require tokens.
type ConstOperand struct {
	Valid bool
	V     int64
}

// Output port conventions, named for readability at wiring sites.
const (
	SteerTrueOut  = 0
	SteerFalseOut = 1
	SteerCtrlOut  = 2

	AllocTagOut  = 0
	AllocCtrlOut = 1

	CTDataOut = 0
	CTCtrlOut = 1

	LoadValOut   = 0
	StoreCtrlOut = 0
)

// MaxOut is the most output ports any op has: NumOut(OpSteer).
const MaxOut = 3

// NumOut returns the number of output ports for an op.
func NumOut(op Op) int {
	switch op {
	case OpSteer:
		return 3
	case OpAllocate, OpChangeTag, OpChangeTagDyn:
		return 2
	case OpFree:
		return 0
	default:
		return 1
	}
}

// MinIn and MaxIn bound the legal input-port counts for an op.
func MinIn(op Op) int {
	switch op {
	case OpBin, OpSteer, OpStore, OpChangeTag, OpAllocate, OpGate:
		return 2
	case OpSelect, OpChangeTagDyn:
		return 3
	case OpJoin:
		return 1
	case OpMerge:
		return 3
	default:
		return 1
	}
}

// MaxIn returns the maximum legal input count for an op, or -1 for
// unbounded (joins).
func MaxIn(op Op) int {
	switch op {
	case OpBin, OpSteer, OpChangeTag, OpAllocate, OpLoad, OpGate:
		return 2
	case OpSelect, OpStore, OpChangeTagDyn, OpMerge:
		return 3
	case OpJoin:
		return -1
	default:
		return 1
	}
}

// Node is one static instruction.
type Node struct {
	ID    NodeID
	Op    Op
	Bin   BinKind // for OpBin
	Block BlockID // owning concurrent block (tags of in-flight tokens)

	NIn     int
	ConstIn []ConstOperand // len NIn; Valid entries need no tokens

	Region int // memory region for OpLoad/OpStore

	Space    BlockID // target tag space for OpAllocate/OpFree
	External bool    // OpAllocate: entering the block from outside

	// Outs[outPort] lists destination input ports. An output with no
	// destinations is discarded when produced (classic steer semantics).
	Outs [][]Port

	Label string // human-readable origin, for traces and errors
}

// BlockKind distinguishes the origin of a concurrent block.
type BlockKind uint8

const (
	BlockRoot BlockKind = iota
	BlockLoop
	BlockFunc
)

func (k BlockKind) String() string {
	switch k {
	case BlockRoot:
		return "root"
	case BlockLoop:
		return "loop"
	case BlockFunc:
		return "func"
	}
	return "?"
}

// Block is a concurrent block: a DAG of instructions with no internal
// concurrency, the paper's unit of tag management.
type Block struct {
	ID     BlockID
	Parent BlockID // -1 for root
	Kind   BlockKind
	Name   string
	// TailRecursive marks blocks with a self-referential transfer point
	// (loops). External allocates into such blocks must keep a tag in
	// reserve (Lemma 2).
	TailRecursive bool
}

// Injection is a token placed into the graph before cycle 0 (program entry).
type Injection struct {
	To  Port
	Val int64
}

// Graph is a complete dataflow program.
type Graph struct {
	Name     string
	Nodes    []Node
	Blocks   []Block
	Entries  []Injection
	MemNames []string // region names; Node.Region indexes this list

	// RootFree is the free instruction of the root block in tagged
	// lowerings; its firing signals program completion. InvalidNode for
	// ordered lowerings, which complete by quiescence.
	RootFree NodeID

	// Result, if valid, is a forward node whose firing carries the entry
	// function's return value; engines record it.
	Result NodeID
}

// NewGraph returns a graph containing only the root block.
func NewGraph(name string) *Graph {
	return &Graph{
		Name:     name,
		Blocks:   []Block{{ID: 0, Parent: -1, Kind: BlockRoot, Name: "root"}},
		RootFree: InvalidNode,
		Result:   InvalidNode,
	}
}

// AddBlock appends a concurrent block and returns its ID.
func (g *Graph) AddBlock(parent BlockID, kind BlockKind, name string, tailRecursive bool) BlockID {
	id := BlockID(len(g.Blocks))
	g.Blocks = append(g.Blocks, Block{
		ID: id, Parent: parent, Kind: kind, Name: name, TailRecursive: tailRecursive,
	})
	return id
}

// AddNode appends a node with nIn input ports and returns its ID.
func (g *Graph) AddNode(op Op, block BlockID, nIn int, label string) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{
		ID:      id,
		Op:      op,
		Block:   block,
		NIn:     nIn,
		ConstIn: make([]ConstOperand, nIn),
		Outs:    make([][]Port, NumOut(op)),
		Label:   label,
	})
	return id
}

// Node returns a pointer to the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// Connect adds an edge from (from, outPort) to (to, inPort).
func (g *Graph) Connect(from NodeID, outPort int, to NodeID, inPort int) {
	n := &g.Nodes[from]
	n.Outs[outPort] = append(n.Outs[outPort], Port{Node: to, In: inPort})
}

// SetConst binds a constant to an input port.
func (g *Graph) SetConst(node NodeID, inPort int, v int64) {
	g.Nodes[node].ConstIn[inPort] = ConstOperand{Valid: true, V: v}
}

// Inject registers an entry token delivered before cycle 0.
func (g *Graph) Inject(to Port, val int64) {
	g.Entries = append(g.Entries, Injection{To: to, Val: val})
}

// MemRegion interns a region name and returns its index.
func (g *Graph) MemRegion(name string) int {
	for i, n := range g.MemNames {
		if n == name {
			return i
		}
	}
	g.MemNames = append(g.MemNames, name)
	return len(g.MemNames) - 1
}

// NumNodes reports the static instruction count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// MaxInputs returns the largest input-port count across nodes (the M of
// Theorem 2's T*N*M live-token bound).
func (g *Graph) MaxInputs() int {
	m := 0
	for i := range g.Nodes {
		if g.Nodes[i].NIn > m {
			m = g.Nodes[i].NIn
		}
	}
	return m
}

// BlockNodes returns the IDs of all nodes in a block, in ID order.
func (g *Graph) BlockNodes(b BlockID) []NodeID {
	var out []NodeID
	for i := range g.Nodes {
		if g.Nodes[i].Block == b {
			out = append(out, g.Nodes[i].ID)
		}
	}
	return out
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: %d nodes, %d blocks, %d entries",
		g.Name, len(g.Nodes), len(g.Blocks), len(g.Entries))
}
