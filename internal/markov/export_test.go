package markov

// The dense oracles and the bit comparison, for the bit-identity tests
// in package markov_test (which can import the chain builders without
// an import cycle).
var (
	DenseStationary   = denseStationary
	DenseHittingTimes = denseHittingTimes
	SameBits          = sameBits
)
