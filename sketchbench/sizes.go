package main

// sizes dimensions the workloads. fullSizes is the benchmark; the test
// runs tinySizes.
type sizes struct {
	setups int // service starts per run; setup_s is their median

	bulkKeys    int // weighted key population
	bulkHeavy   int // keys in the heavy rule's "h/" family
	bulkFrame   int // records per frame
	bulkPrefix  int // frames in the checkpoint
	bulkTail    int // frames in the WAL tail replayed at setup
	bulkRound   int // frames per ingest round (a tick follows each)
	bulkQueries int // point queries per round

	monFrame         int     // records per frame
	monRate          float64 // offered frames per second
	monQueryRate     float64 // window reads per second
	monTickEvery     int     // frames between rule ticks
	monBackground    int     // background sources per epoch
	monBackgroundMax int     // largest background spread
	monScanners      int     // scanners per epoch
	monScannerLo     int
	monScannerHi     int
	monBlock         int // open-loop frames between layer blocks on traced runs
}

var fullSizes = sizes{
	setups: 9,

	bulkKeys:    100_000,
	bulkHeavy:   64,
	bulkFrame:   8192,
	bulkPrefix:  300,
	bulkTail:    40,
	bulkRound:   16,
	bulkQueries: 64,

	monFrame:         64,
	monRate:          400,
	monQueryRate:     200,
	monTickEvery:     50,
	monBackground:    2000,
	monBackgroundMax: 48,
	monScanners:      6,
	monScannerLo:     1200,
	monScannerHi:     2400,
	monBlock:         200,
}

var tinySizes = sizes{
	setups: 2,

	bulkKeys:    2000,
	bulkHeavy:   8,
	bulkFrame:   512,
	bulkPrefix:  60,
	bulkTail:    4,
	bulkRound:   4,
	bulkQueries: 8,

	monFrame:         64,
	monRate:          400,
	monQueryRate:     100,
	monTickEvery:     50,
	monBackground:    1000,
	monBackgroundMax: 48,
	monScanners:      3,
	monScannerLo:     1200,
	monScannerHi:     1600,
	monBlock:         100,
}
