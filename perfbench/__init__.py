"""The skewpencil benchmark; see README.md and run.py."""
