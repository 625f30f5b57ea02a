package core

import "extrap/internal/trace"

// MaxSharedEvents is the cap on a translation held whole for several
// configs.
const MaxSharedEvents = maxSharedEvents

// SharesTranslation reports whether ExtrapolateEncodedAll translates
// enc once for configs configs, the branch the tests must cover.
func SharesTranslation(enc []byte, configs int) (bool, error) {
	ct, err := trace.CompileBinary(enc)
	if err != nil {
		return false, err
	}
	defer ct.Release()
	return sharesTranslation(ct, configs), nil
}
