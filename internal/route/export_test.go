package route

// ChurnOverlay lends the in-package churn helper to the external test
// package, which exists because internal/faults imports this one.
var ChurnOverlay = churnOverlay
