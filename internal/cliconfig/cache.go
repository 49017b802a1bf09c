package cliconfig

import (
	"flag"
	"os"
	"path/filepath"

	"repro/internal/artifact"
)

// EnvRoot is the environment variable overriding the default cache root.
const EnvRoot = "APSREPRO_CACHE"

// DefaultRoot returns the cache root the CLIs use when -cache is not
// given: $APSREPRO_CACHE if set, else <user cache dir>/apsrepro
// (~/.cache/apsrepro on Linux). An empty string means no usable default
// exists and caching stays disabled.
func DefaultRoot() string {
	if env := os.Getenv(EnvRoot); env != "" {
		return env
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "apsrepro")
}

// Cache holds the shared -cache/-no-cache CLI configuration. Every binary
// registers the same pair so cache behavior is uniform across the
// toolchain.
type Cache struct {
	// Root is the cache root directory (-cache).
	Root string
	// Disabled turns the artifact cache off entirely (-no-cache).
	Disabled bool
}

// AddCache registers -cache and -no-cache on fs and returns the bound
// configuration; read it after fs.Parse. AddCommon registers it for the
// aps* CLIs; stlcheck, which needs no other shared flag, calls it alone.
func AddCache(fs *flag.FlagSet) *Cache {
	c := &Cache{}
	fs.StringVar(&c.Root, "cache", DefaultRoot(), "artifact cache root for campaigns and trained monitors")
	fs.BoolVar(&c.Disabled, "no-cache", false, "disable the artifact cache (always regenerate and retrain)")
	return c
}

// Open resolves the parsed flags into a Store. -no-cache (or an unusable
// root) yields the Disabled store; otherwise a Disk store logging cache
// events through logf. The cache is an optimization, so an unopenable
// root degrades to a warning, never an error.
func (c *Cache) Open(logf func(format string, args ...any)) artifact.Store {
	if c.Disabled || c.Root == "" {
		return artifact.Disabled{}
	}
	d, err := artifact.NewDisk(c.Root)
	if err != nil {
		if logf != nil {
			logf("artifact cache disabled: %v", err)
		}
		return artifact.Disabled{}
	}
	d.Logf = logf
	return d
}
