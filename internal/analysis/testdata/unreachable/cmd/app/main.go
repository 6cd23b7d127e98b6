// Command app is the fixture module's only main.
package main

import "ufix/lib"

func main() { lib.Used() }
