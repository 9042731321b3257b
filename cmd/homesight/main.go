package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// main runs one subcommand under a context that SIGINT and SIGTERM
// cancel, so every serve and hold path returns through its cleanup.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := exitCode(run(ctx, os.Args[1:], os.Stdout))
	stop()
	os.Exit(code)
}
