package ir

// Builder provides a convenient way to emit instructions into a block.
// All emitted instructions are unpredicated; hyperblock formation adds
// predicates when it merges blocks.
type Builder struct {
	Fn  *Function
	Cur *Block
}

// NewBuilder returns a builder positioned at block b of f.
func NewBuilder(f *Function, b *Block) *Builder {
	return &Builder{Fn: f, Cur: b}
}

// SetBlock repositions the builder.
func (bd *Builder) SetBlock(b *Block) { bd.Cur = b }

func (bd *Builder) emit(in *Instr) *Instr {
	in.ensureOperandDefaults()
	return bd.Cur.Append(in)
}

func (in *Instr) ensureOperandDefaults() {
	// The zero value of Reg is a valid register (v0); instructions
	// constructed literally must set unused operands to NoReg. The
	// builder constructors below always do; this hook is the single
	// point through which they pass.
}

// Const emits dst = imm into a fresh register.
func (bd *Builder) Const(imm int64) Reg {
	dst := bd.Fn.NewReg()
	bd.emit(&Instr{Op: OpConst, Dst: dst, A: NoReg, B: NoReg, Pred: NoReg, Imm: imm})
	return dst
}

// ConstInto emits dst = imm into an existing register.
func (bd *Builder) ConstInto(dst Reg, imm int64) {
	bd.emit(&Instr{Op: OpConst, Dst: dst, A: NoReg, B: NoReg, Pred: NoReg, Imm: imm})
}

// Mov emits dst = a into a fresh register.
func (bd *Builder) Mov(a Reg) Reg {
	dst := bd.Fn.NewReg()
	bd.MovInto(dst, a)
	return dst
}

// MovInto emits dst = a.
func (bd *Builder) MovInto(dst, a Reg) {
	bd.emit(&Instr{Op: OpMov, Dst: dst, A: a, B: NoReg, Pred: NoReg})
}

// Bin emits dst = a <op> b into a fresh register.
func (bd *Builder) Bin(op Op, a, b Reg) Reg {
	dst := bd.Fn.NewReg()
	bd.BinInto(op, dst, a, b)
	return dst
}

// BinInto emits dst = a <op> b.
func (bd *Builder) BinInto(op Op, dst, a, b Reg) {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary op " + op.String())
	}
	bd.emit(&Instr{Op: op, Dst: dst, A: a, B: b, Pred: NoReg})
}

// Load emits dst = mem[a+off] into a fresh register.
func (bd *Builder) Load(a Reg, off int64) Reg {
	dst := bd.Fn.NewReg()
	bd.LoadInto(dst, a, off)
	return dst
}

// LoadInto emits dst = mem[a+off].
func (bd *Builder) LoadInto(dst, a Reg, off int64) {
	bd.emit(&Instr{Op: OpLoad, Dst: dst, A: a, B: NoReg, Pred: NoReg, Imm: off})
}

// Store emits mem[a+off] = b.
func (bd *Builder) Store(a Reg, off int64, b Reg) {
	bd.emit(&Instr{Op: OpStore, Dst: NoReg, A: a, B: b, Pred: NoReg, Imm: off})
}

// Br emits an unconditional branch to target.
func (bd *Builder) Br(target *Block) {
	bd.emit(&Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, Pred: NoReg, Target: target})
}

// CondBr emits the predicated branch pair: to t when cond is true, to
// f when cond is false.
func (bd *Builder) CondBr(cond Reg, t, f *Block) {
	bd.emit(&Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, Pred: cond, PredSense: true, Target: t})
	bd.emit(&Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, Pred: cond, PredSense: false, Target: f})
}

// Call emits dst = callee(args...) into a fresh register.
func (bd *Builder) Call(callee string, args ...Reg) Reg {
	dst := bd.Fn.NewReg()
	bd.emit(&Instr{Op: OpCall, Dst: dst, A: NoReg, B: NoReg, Pred: NoReg,
		Callee: callee, Args: append([]Reg(nil), args...)})
	return dst
}

// CallVoid emits callee(args...) discarding the result.
func (bd *Builder) CallVoid(callee string, args ...Reg) {
	bd.emit(&Instr{Op: OpCall, Dst: NoReg, A: NoReg, B: NoReg, Pred: NoReg,
		Callee: callee, Args: append([]Reg(nil), args...)})
}

// Ret emits a return of a (pass NoReg for a void return).
func (bd *Builder) Ret(a Reg) {
	bd.emit(&Instr{Op: OpRet, Dst: NoReg, A: a, B: NoReg, Pred: NoReg})
}
