package xrand

// Pure-hash randomness: a value that is a function of its inputs alone, not
// of a stream position. Fault decisions, retry jitter, hedge delays, gossip
// order, trace sampling and ids, and the E17 churn schedule all draw from
// these three functions, which is what makes them bit-identical at any
// worker count and across runs.

// Hash64 mixes words into one well-distributed 64-bit value: each word is
// folded into the state and the state is run through the splitmix64
// finalizer.
func Hash64(vals ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// HashFloat maps the mixed words to a uniform value in [0, 1) with 53 bits
// of precision.
func HashFloat(vals ...uint64) float64 {
	return float64(Hash64(vals...)>>11) * 0x1p-53
}

// HashString folds a string into Hash64, 8 bytes per word, without
// allocating. It is seeded with the length, so strings whose words pack to
// the same values (such as "a" and "\x00a") still differ.
func HashString(s string) uint64 {
	x := uint64(len(s))
	var word uint64
	for i := 0; i < len(s); i++ {
		word = word<<8 | uint64(s[i])
		if (i+1)%8 == 0 {
			x = Hash64(x, word)
			word = 0
		}
	}
	if len(s)%8 != 0 {
		x = Hash64(x, word)
	}
	return x
}
