package dkp

// Policy answers placement queries for one profile. Decide is a pure
// function of the profile and the layer shape — about twenty float
// operations on the fitted coefficients, with no table in front of them —
// so replicas sharing a profile agree on every placement whether or not
// they share a Policy instance. Safe for concurrent use.
type Policy struct {
	prof *Profile
}

// NewPolicy builds a policy over the profile. A nil profile falls back to
// PaperProfile.
func NewPolicy(prof *Profile) *Policy {
	if prof == nil {
		prof = PaperProfile()
	}
	return &Policy{prof: prof}
}

// Profile returns the profile the policy decides from.
func (p *Policy) Profile() *Profile { return p.prof }

// Decide returns the placement for a layer of the given shape. The
// rearrangeability gate (modes that admit no exact rewrite) stays with the
// caller — core.Model — because it depends on layer modes, not shape.
func (p *Policy) Decide(d Dims, firstLayer bool, weightCols int) Placement {
	return p.prof.Coeffs.Decide(d, firstLayer, weightCols)
}
