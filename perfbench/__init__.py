"""Closed-loop benchmark of the point-in-time feature engine (see run.py)."""
