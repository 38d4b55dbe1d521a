"""Reference oracles: straightforward implementations that optimised
code in ``src/`` must match exactly."""
