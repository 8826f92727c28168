package ir

// CloneFunction deep-copies a function: all blocks and instructions
// are fresh, branch targets are remapped onto the copied blocks, and
// register numbering is preserved. The clone is not added to any
// program.
//
// The copy is arena-backed: all cloned blocks, instructions, and
// argument slices live in a handful of flat allocations sized in one
// counting pass, so cloning costs O(1) allocations instead of one per
// instruction.
func CloneFunction(f *Function) *Function {
	nf := &Function{
		Name:      f.Name,
		Params:    append([]Reg(nil), f.Params...),
		nextReg:   f.nextReg,
		nextBlock: f.nextBlock,
		nextBrID:  f.nextBrID,
		version:   f.version,
		Prog:      f.Prog,
	}
	nInstr, nArgs := 0, 0
	for _, b := range f.Blocks {
		nInstr += len(b.Instrs)
		nArgs += countArgs(b.Instrs)
	}
	blockArena := make([]Block, len(f.Blocks))
	instrArena := make([]Instr, nInstr)
	ptrArena := make([]*Instr, nInstr)
	argArena := make([]Reg, nArgs)
	m := make(map[*Block]*Block, len(f.Blocks))
	nf.Blocks = make([]*Block, 0, len(f.Blocks))
	for bi, b := range f.Blocks {
		nb := &blockArena[bi]
		*nb = Block{ID: b.ID, Name: b.Name, Fn: nf, Hyper: b.Hyper}
		n := len(b.Instrs)
		nb.Instrs = ptrArena[:n:n]
		argArena = copyInstrs(nb.Instrs, b.Instrs, instrArena[:n], argArena)
		ptrArena, instrArena = ptrArena[n:], instrArena[n:]
		nf.Blocks = append(nf.Blocks, nb)
		m[b] = nb
	}
	for _, nb := range nf.Blocks {
		RemapTargets(nb, m)
	}
	return nf
}

// countArgs returns the total call-argument count of instrs.
func countArgs(instrs []*Instr) int {
	n := 0
	for _, in := range instrs {
		n += len(in.Args)
	}
	return n
}

// copyInstrs points dst[i] at a copy of src[i] stored in instrs[i],
// carving argument slices off args, and returns the unused rest of
// args. Argument subslices are capped (three-index slices), so a later
// append on a copied instruction reallocates instead of scribbling
// over its arena neighbour.
func copyInstrs(dst, src []*Instr, instrs []Instr, args []Reg) []Reg {
	for i, in := range src {
		ni := &instrs[i]
		*ni = *in
		if n := len(in.Args); n > 0 {
			ni.Args = args[:n:n]
			copy(ni.Args, in.Args)
			args = args[n:]
		} else {
			ni.Args = nil
		}
		dst[i] = ni
	}
	return args
}

// BlockSnapshot is what an in-place trial edit of one block needs to
// roll back: the block's instruction list and the function's register,
// branch-ID and version counters (see Function.SnapshotBlock).
type BlockSnapshot struct {
	f        *Function
	b        *Block
	instrs   []*Instr
	nextReg  Reg
	nextBrID int32
	version  uint64
}

// SnapshotBlock prepares b for a trial edit that may be undone: b's
// instructions are replaced by fresh copies, so in-place operand
// rewrites during the trial never reach the originals, and the
// function's counters are recorded. The trial may edit only b and
// allocate registers and branch IDs; Restore then reinstates the exact
// pre-trial state, including the version, so version-keyed analyses
// computed before the trial stay valid. Nothing may cache an analysis
// of f mid-trial: after Restore the same version would name two
// different states.
func (f *Function) SnapshotBlock(b *Block) BlockSnapshot {
	s := BlockSnapshot{f: f, b: b, instrs: b.Instrs,
		nextReg: f.nextReg, nextBrID: f.nextBrID, version: f.version}
	n := len(b.Instrs)
	b.Instrs = make([]*Instr, n)
	copyInstrs(b.Instrs, s.instrs, make([]Instr, n), make([]Reg, countArgs(s.instrs)))
	return s
}

// Restore undoes the trial edit begun by SnapshotBlock.
func (s BlockSnapshot) Restore() {
	s.b.Instrs = s.instrs
	s.f.nextReg, s.f.nextBrID, s.f.version = s.nextReg, s.nextBrID, s.version
}

// RemapTargets rewrites every branch in b whose target appears in m to
// the mapped block. Targets absent from m are left alone.
func RemapTargets(b *Block, m map[*Block]*Block) {
	for _, in := range b.Instrs {
		if in.Op == OpBr {
			if nt, ok := m[in.Target]; ok {
				in.Target = nt
			}
		}
	}
}

// CloneProgram deep-copies a program, including the global memory
// layout and all functions.
func CloneProgram(p *Program) *Program {
	np := NewProgram()
	np.MemSize = p.MemSize
	for name, g := range p.Globals {
		np.Globals[name] = g
	}
	for addr, v := range p.InitData {
		np.InitData[addr] = v
	}
	for name := range p.Externs {
		np.Externs[name] = true
	}
	for _, name := range p.FuncOrder {
		nf := CloneFunction(p.Funcs[name])
		np.AddFunc(nf)
	}
	return np
}
