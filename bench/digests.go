package main

// pinned holds, per workload, the digest of the simulated outputs for
// the committed seed: the report bytes (every colo policy run's, the
// fleet report's) and, for serve, the live report plus the journal,
// trace and metrics artifacts. A run on another seed only requires its
// units to agree with each other.
var pinned = map[string]map[uint64]string{
	"colo":  {1: "3bb5b66b510ce3ee2c861ab0645e96cfa7ed84bf789557cc0f5297ba80c3e9f0"},
	"fleet": {1: "cc21d2cbe3dc2bb69eb902eba2b34452b22f3b0fd46fa3b4783b62b3032a199d"},
	"serve": {1: "0f62b8c30f186adba36a60bf8cefc34db1df3c9528bafdf71aa57591b8268de9"},
}
