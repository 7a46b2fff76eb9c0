"""Synchronous crash/restart simulation substrate (Section 2 of the paper)."""
