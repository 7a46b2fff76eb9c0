"""Experiment harness: scenario builders, audited runner, reporting."""
