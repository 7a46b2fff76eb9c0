"""Continuous-gossip substrate: rumors, epidemic/expander spreading, filters."""
