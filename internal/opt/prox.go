package opt

// SoftThreshold is the scalar shrinkage operator prox_{t·|·|}(v):
// sign(v)·max(|v| − t, 0), the separable prox of the ℓ1 penalty the drivers
// apply one coordinate at a time (the linlearn `prox.call_single` idiom).
// Two algebraic identities make the lazy prox-at-settle path exact (see
// lazy.go): thresholds compose additively, soft(soft(v,a),b) = soft(v,a+b),
// and commute with positive scaling, c·soft(v,t) = soft(c·v, c·t).
func SoftThreshold(v, t float64) float64 {
	if t <= 0 {
		return v
	}
	if v > t {
		return v - t
	}
	if v < -t {
		return v + t
	}
	return 0
}
