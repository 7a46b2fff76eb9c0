"""CONGOS: the paper's confidential continuous-gossip protocol."""
