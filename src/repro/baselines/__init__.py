"""Baseline protocols: direct send, strongly confidential gossip, plain
(non-confidential) gossip, and the LKH crypto cost model."""
