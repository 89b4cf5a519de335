"""Monte-Carlo cell benchmark for ``stable_sysid`` (see README.md)."""
