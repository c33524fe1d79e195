package main

// pinnedDigests holds, per workload, the SHA-256 of the canonical
// NDJSON that seed 1 (the default) must produce: the whole result
// file of a grid round, or every line of a serve-loop round's sweeps
// in order. Any other seed is checked for the same digest in every
// round of a run.
var pinnedDigests = map[string]map[uint64]string{
	"grid-batched":  {1: "b840e4e9dc2fce36b633079df0b795bc1b9f87471286721ef272bad8f4d1de4f"},
	"grid-observed": {1: "96e4c98b84505554f3a0f48f7f4ca592095fed1b55f591bba89462716d69ae01"},
	"serve-loop":    {1: "91c546a598c57dfe3e269fb368aeacdaf2f7968f12648977f84371b682759e13"},
}
