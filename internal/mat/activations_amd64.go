package mat

// hasFMA is the CPUID FMA bit (leaf 1, ECX bit 12). The activation assembly
// runs only when it and useAVX2 are both set: exactly the CPUs on which
// math.Exp takes its FMA path (math's useFMA is HasAVX && HasFMA), whose
// rounding the assembly copies. On an AVX2 CPU without FMA, math.Exp rounds
// its range reduction twice, and the scalar expression runs instead.
var hasFMA = func() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}()

//go:noescape
func sigmoidAVX2(dst, src *float64, n int) int

//go:noescape
func tanhAVX2(dst, src *float64, n int) int

//go:noescape
func sigmoidAVX512(dst, src *float64, n int) int

//go:noescape
func tanhAVX512(dst, src *float64, n int) int

// sigmoidVec runs the assembly over the leading whole groups of src and
// returns how many elements it wrote to dst: the eight-lane arm first, then
// the four-lane arm from where it stopped, which stops before the first
// four-element group holding an input outside |v| ≤ 700. It writes nothing
// when the assembly is off.
func sigmoidVec(dst, src []float64) int {
	if !useAVX2 || !hasFMA {
		return 0
	}
	i := 0
	if n := len(src) &^ 7; useAVX512 && n > 0 {
		i = sigmoidAVX512(&dst[0], &src[0], n)
	}
	if n := (len(src) - i) &^ 3; n > 0 {
		i += sigmoidAVX2(&dst[i], &src[i], n)
	}
	return i
}

// tanhVec is sigmoidVec for tanh, whose assembly range is |v| ≤ 44.
func tanhVec(dst, src []float64) int {
	if !useAVX2 || !hasFMA {
		return 0
	}
	i := 0
	if n := len(src) &^ 7; useAVX512 && n > 0 {
		i = tanhAVX512(&dst[0], &src[0], n)
	}
	if n := (len(src) - i) &^ 3; n > 0 {
		i += tanhAVX2(&dst[i], &src[i], n)
	}
	return i
}
