package ios

// StageMemoWidth exposes the stage memo's width to the external tests.
const StageMemoWidth = stageMemoWidth
