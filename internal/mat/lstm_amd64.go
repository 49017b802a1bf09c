package mat

//go:noescape
func gateSumAVX512(gates, z, zh, b *float64, rows, H int)

//go:noescape
func stepGradAVX512(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up *float64, ldu, rows, H int)

// gateSumWide runs LSTMGateSum's rows in gateSumAVX512 and reports
// whether it did; it declines when the eight-lane arm is off or the block
// is empty.
func gateSumWide(gates, z, zh, b []float64, rows int) bool {
	H4 := len(b)
	if !useAVX512 || rows == 0 || H4 < 4 {
		return false
	}
	n := rows * H4
	gateSumAVX512(&gates[:n][0], &z[:n][0], &zh[:n][0], &b[0], rows, H4/4)
	return true
}

// stepGradWide runs stepGradGo's rows×H block in stepGradAVX512 and
// reports whether it did; it declines when the eight-lane arm is off.
// rows and H are at least 1.
func stepGradWide(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up []float64, ldu, rows, H int) bool {
	if !useAVX512 {
		return false
	}
	n := rows * H
	var upp *float64
	if up != nil {
		upp = &up[:(rows-1)*ldu+H][0]
	}
	stepGradAVX512(&dz[:4*n][0], &dcPrev[:n][0], &gates[:4*n][0], &tc[:n][0], &cPrev[:n][0],
		&dhNext[:n][0], &dcNext[:n][0], upp, ldu, rows, H)
	return true
}
