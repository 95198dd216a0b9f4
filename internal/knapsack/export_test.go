package knapsack

// DenseDP exposes the dense reference kernel to the external tests.
var DenseDP = denseDP
