"""CRRI adversaries: workloads, fault models, adaptive attackers, coalitions."""
