package staticanalysis

import (
	"testing"

	"barracuda/internal/ptx"
)

// gtidKernel computes the canonical global-thread-id strided address:
// out + (ctaid.x*ntid.x + tid.x)*8 + 4.
const gtidKernel = `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 8;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3+4], %r4;
	ret;
}`

func TestAffineGtidAddress(t *testing.T) {
	c := buildCFG(t, gtidKernel)
	aff := computeAffine(c)
	stIdx := -1
	for i, in := range c.Instrs {
		if in.Op == ptx.OpSt {
			stIdx = i
		}
	}
	v := aff.addr[stIdx]
	if !v.affine {
		t.Fatalf("store address not affine: %v", v)
	}
	if v.c != 4 {
		t.Errorf("const = %d, want 4", v.c)
	}
	want := map[term]int64{
		{kind: termParam, name: "out+0"}: 1,
		{kind: termTid, axis: 0}:         8,
		{kind: termBlockBase, axis: 0}:   8,
	}
	if len(v.terms) != len(want) {
		t.Fatalf("terms = %v, want %v", v.terms, want)
	}
	for tm, co := range want {
		if v.coeff(tm) != co {
			t.Errorf("coeff(%v) = %d, want %d (value %v)", tm, v.coeff(tm), co, v)
		}
	}
	if !v.taint {
		t.Error("tid-derived address must be tainted")
	}
}

func TestAffineGuardTaint(t *testing.T) {
	c := buildCFG(t, `.visible .entry k(.param .u32 n) {
	.reg .u32 %r<8>;
	.reg .pred %p<4>;
	ld.param.u32 %r5, [n];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	setp.lt.u32 %p2, %r5, 16;
	@%p1 bra A;
A:
	@%p2 bra B;
B:
	ret;
}`)
	aff := computeAffine(c)
	var tidBra, uniBra = -1, -1
	for i, in := range c.Instrs {
		if in.Op == ptx.OpBra && in.Guard != nil {
			if in.Guard.Reg == "%p1" {
				tidBra = i
			} else {
				uniBra = i
			}
		}
	}
	if !aff.GuardTainted(tidBra) {
		t.Error("tid-derived guard must be tainted")
	}
	if aff.GuardTainted(uniBra) {
		t.Error("param-derived guard must not be tainted")
	}
}

// TestAffineJoinAgreement: a register set to the same affine value on
// both arms of a diamond keeps it; disagreement degrades to unknown.
func TestAffineJoinAgreement(t *testing.T) {
	c := buildCFG(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra THEN;
	add.u64 %rd2, %rd1, 8;
	bra.uni JOIN;
THEN:
	add.u64 %rd2, %rd1, 8;
JOIN:
	st.global.u32 [%rd2], %r1;
	ret;
}`)
	aff := computeAffine(c)
	for i, in := range c.Instrs {
		if in.Op == ptx.OpSt {
			v := aff.addr[i]
			if !v.affine || v.c != 8 {
				t.Errorf("join address = %v, want affine out+8", v)
			}
			_ = in
		}
	}
}

func TestAffineShlAndSub(t *testing.T) {
	c := buildCFG(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 3;
	sub.u32 %r3, %r2, 8;
	cvt.u64.u32 %rd2, %r3;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	ret;
}`)
	aff := computeAffine(c)
	for i, in := range c.Instrs {
		if in.Op == ptx.OpSt {
			v := aff.addr[i]
			if !v.affine || v.c != -8 || v.coeff(term{kind: termTid, axis: 0}) != 8 {
				t.Errorf("address = %v, want out + 8*tid.x - 8", v)
			}
		}
	}
}

// TestAffineNonAffineOp: a bitwise op produces unknown but keeps taint.
func TestAffineNonAffineOp(t *testing.T) {
	c := buildCFG(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 15;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	ret;
}`)
	aff := computeAffine(c)
	for i, in := range c.Instrs {
		if in.Op == ptx.OpSt {
			v := aff.addr[i]
			if v.affine {
				t.Errorf("and-derived address must be unknown, got %v", v)
			}
			if !v.taint {
				t.Error("taint must survive the non-affine op")
			}
		}
	}
}

// coeff returns the coefficient of term t in v, zero when v lacks it.
func (v value) coeff(t term) int64 {
	for _, tc := range v.terms {
		if tc.t == t {
			return tc.co
		}
	}
	return 0
}
