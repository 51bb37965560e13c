// Package cliflags validates the experiment-selection flags shared by the
// cmd binaries: each binary exposes one boolean flag per figure/table plus
// -all, and the selections are mutually exclusive — combining two figure
// flags (or a figure flag with -all) is rejected up front instead of
// silently running a subset.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Exclusive checks an experiment selection: at most one of the named
// flags may be set, and none may combine with -all. The returned error
// names the offending flags.
func Exclusive(all bool, selected map[string]bool) error {
	var set []string
	for name, on := range selected {
		if on {
			set = append(set, "-"+name)
		}
	}
	sort.Strings(set)
	if all && len(set) > 0 {
		return fmt.Errorf("-all cannot be combined with %s", strings.Join(set, " "))
	}
	if len(set) > 1 {
		return fmt.Errorf("%s are mutually exclusive; pick one or use -all", strings.Join(set, " "))
	}
	if !all && len(set) == 0 {
		return fmt.Errorf("no experiment selected")
	}
	return nil
}

// Fail reports a usage error for the default FlagSet and exits 2.
func Fail(err error) {
	os.Exit(UsageError(flag.CommandLine, err))
}

// UsageError reports a usage error and fs's usage on fs's output and
// returns the usage exit status 2: Fail for run functions that return
// their exit status instead of exiting.
func UsageError(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	fs.Usage()
	return 2
}
