package ir

import (
	"strings"
	"testing"
)

// The fuzz-hardened pipeline leans on Verify to catch silently
// corrupted IR after every phase, so the negative cases below pin
// down the exact failure messages GuardFunction surfaces.

func TestVerifyOutOfRangeRegUse(t *testing.T) {
	f, _, left, _, _ := buildDiamond(t)
	bad := Reg(f.NumRegs() + 7)
	left.Instrs[0].A = bad
	err := Verify(f)
	if err == nil {
		t.Fatal("Verify accepted a read of an unallocated register")
	}
	if !strings.Contains(err.Error(), "reads unallocated register") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestVerifyOutOfRangeRegDef(t *testing.T) {
	f, _, _, right, _ := buildDiamond(t)
	right.Instrs[0].Dst = Reg(f.NumRegs())
	err := Verify(f)
	if err == nil {
		t.Fatal("Verify accepted a write to an unallocated register")
	}
	if !strings.Contains(err.Error(), "writes unallocated register") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestVerifyOutOfRangeCallArg(t *testing.T) {
	f := NewFunction("caller", 1)
	entry := f.NewBlock("entry")
	bd := NewBuilder(f, entry)
	r := bd.Call("callee", f.Params[0])
	bd.Ret(r)
	if err := Verify(f); err != nil {
		t.Fatalf("Verify on valid call: %v", err)
	}
	entry.Instrs[0].Args[0] = Reg(f.NumRegs() + 1)
	err := Verify(f)
	if err == nil || !strings.Contains(err.Error(), "reads unallocated register") {
		t.Fatalf("out-of-range call argument not caught: %v", err)
	}
}

// buildCallerProgram assembles a two-function program (a diamond plus
// a wrapper that calls it) with globals, init data, and an extern —
// exercising every field CloneProgram must copy.
func buildCallerProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	p.AddGlobal("g", 8)
	p.AddGlobal("h", 4)
	p.InitData[2] = 99
	p.Externs["print"] = true

	f, _, _, _, _ := buildDiamond(t)
	p.AddFunc(f)

	w := NewFunction("wrap", 2)
	entry := w.NewBlock("entry")
	bd := NewBuilder(w, entry)
	r := bd.Call("diamond", w.Params[0], w.Params[1])
	bd.CallVoid("print", r)
	bd.Ret(r)
	p.AddFunc(w)

	if err := VerifyProgram(p); err != nil {
		t.Fatalf("VerifyProgram on fresh program: %v", err)
	}
	return p
}

func TestCloneProgramInvariants(t *testing.T) {
	p := buildCallerProgram(t)
	cp := CloneProgram(p)

	// The clone verifies on its own, with call edges and externs intact.
	if err := VerifyProgram(cp); err != nil {
		t.Fatalf("VerifyProgram on clone: %v", err)
	}
	if len(cp.FuncOrder) != 2 || cp.FuncOrder[0] != "diamond" || cp.FuncOrder[1] != "wrap" {
		t.Fatalf("clone FuncOrder = %v", cp.FuncOrder)
	}
	if cp.MemSize != p.MemSize || cp.Globals["g"] != p.Globals["g"] || !cp.Externs["print"] {
		t.Fatal("clone lost memory layout or externs")
	}

	// No structural sharing: every function, block, and instruction is
	// a fresh object, and branch targets point into the clone's own
	// block set (never back into the original).
	for _, name := range p.FuncOrder {
		of, nf := p.Funcs[name], cp.Funcs[name]
		if of == nf {
			t.Fatalf("function %s shared between program and clone", name)
		}
		if nf.Prog != cp {
			t.Fatalf("clone of %s points at Prog %p, want clone %p", name, nf.Prog, cp)
		}
		own := map[*Block]bool{}
		for _, b := range nf.Blocks {
			own[b] = true
		}
		for i, b := range nf.Blocks {
			if b == of.Blocks[i] {
				t.Fatalf("%s block %s shared with original", name, b.Name)
			}
			for j, in := range b.Instrs {
				if in == of.Blocks[i].Instrs[j] {
					t.Fatalf("%s instr %s:%d shared with original", name, b.Name, j)
				}
				if in.Op == OpBr && !own[in.Target] {
					t.Fatalf("%s branch %s:%d targets a block outside the clone", name, b.Name, j)
				}
			}
		}
	}

	// Mutating the clone must leave the original untouched and valid.
	cd := cp.Funcs["diamond"]
	cd.Blocks[1].Instrs[0].Op = OpSub
	cd.Blocks = cd.Blocks[:1]
	cp.Funcs["wrap"].Blocks[0].Instrs[0].Args[0] = Reg(500)
	cp.InitData[2] = -1
	delete(cp.Externs, "print")
	cp.FuncOrder[0], cp.FuncOrder[1] = cp.FuncOrder[1], cp.FuncOrder[0]

	if err := VerifyProgram(p); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
	if op := p.Funcs["diamond"].Blocks[1].Instrs[0].Op; op != OpAdd {
		t.Fatalf("original diamond left block op = %v, want add", op)
	}
	if n := len(p.Funcs["diamond"].Blocks); n != 4 {
		t.Fatalf("original diamond has %d blocks, want 4", n)
	}
	if a := p.Funcs["wrap"].Blocks[0].Instrs[0].Args[0]; a != p.Funcs["wrap"].Params[0] {
		t.Fatalf("original call args mutated: %v", a)
	}
	if p.InitData[2] != 99 || !p.Externs["print"] || p.FuncOrder[0] != "diamond" {
		t.Fatal("clone mutation leaked into original program metadata")
	}
}

func TestCloneFunctionPreservesRegNumbering(t *testing.T) {
	f, _, _, _, _ := buildDiamond(t)
	before := f.NumRegs()
	nf := CloneFunction(f)
	if nf.NumRegs() != before {
		t.Fatalf("clone NumRegs = %d, want %d", nf.NumRegs(), before)
	}
	// Fresh registers in the clone must not retroactively validate
	// out-of-range uses in the original, and vice versa.
	nf.NewReg()
	if f.NumRegs() != before {
		t.Fatalf("NewReg on clone advanced original: %d", f.NumRegs())
	}
}

// A foreign block that shares its ID with a registered block is still
// foreign: Verify must compare block identity, not just the ID.
func TestVerifyForeignTargetSharingID(t *testing.T) {
	f, _, left, _, join := buildDiamond(t)
	g := CloneFunction(f)
	twin := g.BlockByID(join.ID)
	if twin == nil || twin == join || twin.ID != join.ID {
		t.Fatal("clone must hold a distinct block with join's ID")
	}
	br := left.Instrs[len(left.Instrs)-1]
	br.Target = twin
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "targets foreign block") {
		t.Fatalf("want foreign-target error, got %v", err)
	}
	br.Target = &Block{ID: f.BlockIDBound() + 5, Name: "far"}
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "targets foreign block") {
		t.Fatalf("want foreign-target error for an out-of-range ID, got %v", err)
	}
	br.Target = join
	if err := Verify(f); err != nil {
		t.Fatalf("restored function must verify: %v", err)
	}
	f.Blocks = append(f.Blocks, left)
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "registered twice") {
		t.Fatalf("want registered-twice error, got %v", err)
	}
}
