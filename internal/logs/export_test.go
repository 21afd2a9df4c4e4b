package logs

// The constant-URL sample and its encoder, handed to the external benchmark
// package (which has to be external: its second input comes from
// internal/gen, and gen imports this package).
var (
	SampleProxyRecords = sampleProxyRecords
	EncodeProxyTSV     = encodeProxyTSV
)
