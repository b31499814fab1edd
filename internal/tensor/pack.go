package tensor

import "sync"

// BLIS-style packed GEMM. The classic blocked kernels in matmul.go keep
// GFLOP/s respectable up to a few hundred rows, but at 1024+ both
// operands fall out of cache and throughput collapses: every sweep of
// the 2-row micro-kernel re-streams a B panel whose rows are scattered
// across n·8-byte strides. The packed path fixes the memory system the
// way BLIS does — copy panels of A and B once into contiguous,
// micro-kernel-ordered buffers, then run a register-tiled micro-kernel
// over them inside an mc/kc/nc loop nest:
//
//	for jc in 0..n step packNC:        // B panel column block  (L3)
//	  for pc in 0..k step packKC:      // k block               (shared)
//	    pack B[pc:pc+kc, jc:jc+nc]     // → packNR-wide strips
//	    for ic in 0..m step packMC:    // A block               (L2)
//	      pack A[ic:ic+mc, pc:pc+kc]   // → packMR-tall strips
//	      for jr, ir over the block:   // 2×4 register tiles    (L1)
//	        kernel2x4(…)
//
// Reproducibility contract: every C element is accumulated strictly in
// ascending p order with one `acc += a*b` per term — the pc loop is
// outside ic/jr/ir, the micro-kernel starts each tile from the partial
// sum already in C, and zero-padded pack lanes are never stored — so
// the packed result is bitwise identical to the naive i-p-j loop for
// all three variants, under any worker count.
//
// Parallelism: the output is split into row (or, for the short-wide
// conv products, column) slabs, one per worker on the persistent pool
// in parallel.go. Each worker runs the full loop nest over its own slab
// with its own pack buffers, so slabs share nothing and the partition
// never touches k — each element still belongs to exactly one worker.
// The slab that owns rows re-packs the shared B panels itself; that
// redundancy is O(k·n) copies per worker against O(m·n·k/workers)
// flops, well under 1% at the sizes the packed path accepts.
const (
	// packMR×packNR is the register micro-tile. 2×4 keeps the working
	// set — 8 accumulators plus 6 operand temporaries — inside the 16
	// XMM registers; the classic 4×4 tile measured slower (3.4 vs 5.2
	// GFLOP/s raw kernel throughput on the reference machine) because
	// its 16 accumulators force the register allocator to spill every
	// accumulator to the stack on every k iteration, and the spill
	// traffic costs more than the extra operand reuse saves.
	packMR = 2
	packNR = 4
	// packKC rows of packed B per panel strip: one packKC×packNR strip
	// spans 8 KiB and stays L1-resident for every tile in the ic block.
	// Sweeping kc∈{256,512} on the reference box showed 256 marginally
	// ahead; both beat smaller blocks, which repack A too often.
	packKC = 256
	// packMC rows of packed A per block: a packMC×packKC block spans
	// 64 KiB, small enough to stay hot in L2 across the whole jr sweep
	// (mc∈{8..64} measured within noise of each other; 16–32 was best).
	packMC = 32
	// packNC columns of packed B per panel: a packKC×packNC panel spans
	// 2 MiB, sized for the outer-level cache.
	packNC = 1024
)

// packedMinOps is the flop count (2·m·n·k) above which the packed path
// replaces the classic blocked kernels: below it the pack copies cost
// more than the cache misses they remove. It is a variable so tests can
// force tiny products through the packed path.
var packedMinOps = 4 << 20

// usePacked reports whether an m×k·k×n product is worth packing.
func usePacked(m, k, n int) bool {
	if m <= 0 || n <= 0 || k <= 0 {
		return false
	}
	return 2*m*n*k >= packedMinOps
}

// packBuf is one worker's pair of pack buffers, drawn from the shared
// workspace. Obtain reuses the same backing arrays call after call, so
// steady-state packed GEMMs allocate nothing.
type packBuf struct {
	a, b *Tensor
}

var (
	packWS   = NewWorkspace()
	packMu   sync.Mutex
	packFree []*packBuf
)

// getPackBuf checks a buffer pair out of the free list, sized for one
// packMC×packKC A block and one packKC×nc B panel.
func getPackBuf(nc int) *packBuf {
	packMu.Lock()
	var pb *packBuf
	if n := len(packFree); n > 0 {
		pb = packFree[n-1]
		packFree = packFree[:n-1]
	} else {
		pb = &packBuf{}
	}
	packMu.Unlock()
	ncPad := roundUp(nc, packNR)
	pb.a = packWS.Obtain(pb.a, packMC*packKC)
	pb.b = packWS.Obtain(pb.b, packKC*ncPad)
	return pb
}

func putPackBuf(pb *packBuf) {
	packMu.Lock()
	packFree = append(packFree, pb)
	packMu.Unlock()
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// packedGemm accumulates C += op(A)·op(B) over pre-zeroed C, where a is
// the m×k left operand (stored k×m when aTrans — the Aᵀ·B variant) and
// b the k×n right operand (stored n×k when bTrans — the A·Bᵀ variant).
// The output is split into slabs across the worker pool.
func packedGemm(a, b, c []float64, m, k, n int, aTrans, bTrans bool) {
	slab := func(i0, i1, j0, j1 int) {
		pb := getPackBuf(min(packNC, j1-j0))
		packedSlab(a, b, c, m, k, n, i0, i1, j0, j1, aTrans, bTrans, pb)
		putPackBuf(pb)
	}
	workers := maxWorkers
	// Row slabs unless the product is too short to feed every worker a
	// packMR-tall slab of its own — the conv layers' few-filters ×
	// C·kh·kw weight-gradient products — in which case split columns.
	if m >= packMR*workers || m >= n {
		parallelAligned(m, packMR, func(lo, hi int) { slab(lo, hi, 0, n) })
		return
	}
	parallelAligned(n, packNR, func(lo, hi int) { slab(0, m, lo, hi) })
}

// packedSlab runs the full jc/pc/ic loop nest over C[i0:i1, j0:j1].
func packedSlab(a, b, c []float64, m, k, n, i0, i1, j0, j1 int, aTrans, bTrans bool, pb *packBuf) {
	ap, bp := pb.a.data, pb.b.data
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		for pc := 0; pc < k; pc += packKC {
			kc := min(packKC, k-pc)
			if bTrans {
				packBTrans(bp, b, k, pc, kc, jc, nc)
			} else {
				packB(bp, b, n, pc, kc, jc, nc)
			}
			for ic := i0; ic < i1; ic += packMC {
				mc := min(packMC, i1-ic)
				if aTrans {
					packATrans(ap, a, m, ic, mc, pc, kc)
				} else {
					packA(ap, a, k, ic, mc, pc, kc)
				}
				for jr := 0; jr < nc; jr += packNR {
					nr := min(packNR, nc-jr)
					bs := bp[jr*kc : jr*kc+kc*packNR]
					for ir := 0; ir < mc; ir += packMR {
						mr := min(packMR, mc-ir)
						as := ap[ir*kc : ir*kc+kc*packMR]
						ct := c[(ic+ir)*n+jc+jr:]
						if mr == packMR && nr == packNR {
							kernel2x4(as, bs, ct, n, kc)
						} else {
							kernelEdge(as, bs, ct, n, kc, mr, nr)
						}
					}
				}
			}
		}
	}
}

// packA copies A[ic:ic+mc, pc:pc+kc] (row-major, leading dimension lda)
// into packMR-tall strips: strip s holds rows ic+2s and ic+2s+1 laid
// out k-major, dst[2p+r]. A trailing odd row is zero-padded; the padded
// lane feeds micro-tile results that are never stored.
func packA(dst, a []float64, lda, ic, mc, pc, kc int) {
	d := 0
	for ir := 0; ir < mc; ir += packMR {
		s := dst[d : d+packMR*kc]
		if mc-ir >= packMR {
			r0 := a[(ic+ir+0)*lda+pc : (ic+ir+0)*lda+pc+kc]
			r1 := a[(ic+ir+1)*lda+pc : (ic+ir+1)*lda+pc+kc]
			for p := 0; p < kc; p++ {
				s[2*p+0] = r0[p]
				s[2*p+1] = r1[p]
			}
		} else {
			r0 := a[(ic+ir)*lda+pc : (ic+ir)*lda+pc+kc]
			for p := 0; p < kc; p++ {
				s[2*p+0] = r0[p]
				s[2*p+1] = 0
			}
		}
		d += packMR * kc
	}
}

// packATrans is packA for the Aᵀ·B variant, where the logical m×k left
// operand is stored k×m: element (i, p) lives at a[p*ldm+i]. Reads walk
// packMR adjacent elements per p, so the copies stream.
func packATrans(dst, a []float64, ldm, ic, mc, pc, kc int) {
	d := 0
	for ir := 0; ir < mc; ir += packMR {
		s := dst[d : d+packMR*kc]
		if mc-ir >= packMR {
			for p := 0; p < kc; p++ {
				src := a[(pc+p)*ldm+ic+ir : (pc+p)*ldm+ic+ir+packMR]
				s[2*p+0] = src[0]
				s[2*p+1] = src[1]
			}
		} else {
			for p := 0; p < kc; p++ {
				s[2*p+0] = a[(pc+p)*ldm+ic+ir]
				s[2*p+1] = 0
			}
		}
		d += packMR * kc
	}
}

// packB copies B[pc:pc+kc, jc:jc+nc] (row-major, leading dimension ldb)
// into packNR-wide strips: strip s holds columns jc+4s..jc+4s+3 laid
// out k-major, dst[4p+c]. Columns past nc are zero-padded.
func packB(dst, b []float64, ldb, pc, kc, jc, nc int) {
	d := 0
	for jr := 0; jr < nc; jr += packNR {
		nr := min(packNR, nc-jr)
		s := dst[d : d+packNR*kc]
		if nr == packNR {
			for p := 0; p < kc; p++ {
				src := b[(pc+p)*ldb+jc+jr : (pc+p)*ldb+jc+jr+packNR]
				s[4*p+0] = src[0]
				s[4*p+1] = src[1]
				s[4*p+2] = src[2]
				s[4*p+3] = src[3]
			}
		} else {
			for i := range s {
				s[i] = 0
			}
			for p := 0; p < kc; p++ {
				src := b[(pc+p)*ldb+jc+jr : (pc+p)*ldb+jc+jr+nr]
				for c, v := range src {
					s[4*p+c] = v
				}
			}
		}
		d += packNR * kc
	}
}

// packBTrans is packB for the A·Bᵀ variant, where the logical k×n right
// operand is stored n×k: element (p, j) lives at b[j*ldk+p]. Each
// column of the strip is a contiguous run of the source.
func packBTrans(dst, b []float64, ldk, pc, kc, jc, nc int) {
	d := 0
	for jr := 0; jr < nc; jr += packNR {
		nr := min(packNR, nc-jr)
		s := dst[d : d+packNR*kc]
		if nr < packNR {
			for i := range s {
				s[i] = 0
			}
		}
		for c := 0; c < nr; c++ {
			col := b[(jc+jr+c)*ldk+pc : (jc+jr+c)*ldk+pc+kc]
			for p, v := range col {
				s[4*p+c] = v
			}
		}
		d += packNR * kc
	}
}

// kernel2x4 accumulates one full 2×4 tile of C from packed panels: ap
// holds 2 rows of A k-major (ap[2p+r]), bp 4 columns of B k-major
// (bp[4p+c]), and C is row-major with leading dimension ldc. The 8
// accumulators live in registers across the whole k loop; each starts
// from the partial sum already in C and every term is added with a
// separate multiply and add in ascending p order, keeping the result
// bitwise identical to the naive loop.
func kernel2x4(ap, bp []float64, c []float64, ldc, kc int) {
	c0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
	c1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	ap = ap[: 2*kc : 2*kc]
	bp = bp[: 4*kc : 4*kc]
	for p := 0; 4*p+4 <= len(bp); p++ {
		a0, a1 := ap[2*p], ap[2*p+1]
		b0, b1, b2, b3 := bp[4*p], bp[4*p+1], bp[4*p+2], bp[4*p+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// kernelEdge handles the mr×nr boundary tiles (mr ≤ 2, nr ≤ 4). Pack
// padding fills the missing lanes with zeros, but only the valid mr×nr
// results are read from or stored to C, so padding never perturbs an
// output element.
func kernelEdge(ap, bp []float64, c []float64, ldc, kc, mr, nr int) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			acc := crow[j]
			for p := 0; p < kc; p++ {
				acc += ap[p*packMR+r] * bp[p*packNR+j]
			}
			crow[j] = acc
		}
	}
}
