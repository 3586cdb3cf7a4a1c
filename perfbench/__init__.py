"""End-to-end Table III benchmark; see README.md and run.py."""
