"""End-to-end benchmark of the quantile service (see README.md)."""
