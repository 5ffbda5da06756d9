"""susyqm benchmark harness; see README.md."""
