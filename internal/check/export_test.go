package check

// UseFullScanStatusWord makes Default build the full-scan reference
// status-word oracle until the returned func runs, for tests outside the
// package.
func UseFullScanStatusWord() (restore func()) { return useFullScan() }
