package ios

import "github.com/shus-lab/hios/internal/cost"

// StageMemoWidth exposes the stage memo's width to the external tests.
const StageMemoWidth = cost.MemoWidth
