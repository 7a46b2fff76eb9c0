"""repro.net — sharded multi-process CONGOS on a real message transport.

The subsystem has four layers, each usable on its own:

* :mod:`repro.net.codec` — a versioned, deterministic wire format for
  :class:`~repro.sim.messages.Message` payloads and control frames.
  Leak-safe by construction: only registered payload types encode, and a
  frame never widens what its payload ``reveals()``.  A stream of message
  batches keeps a per-stream item table (:class:`WireSession`), so a
  gossip item crosses it in full once.
* :mod:`repro.net.transport` — the byte transport: stdlib TCP loopback,
  no dependencies.
* :mod:`repro.net.shard` — the group-aligned pid-to-worker plan.
* :mod:`repro.net.worker` / :mod:`repro.net.coordinator` — the worker
  process hosting a shard of :class:`~repro.sim.process.ProcessShell`\\ s
  and the coordinator that drives the round barrier, runs the adversary,
  relays cross-shard traffic and feeds the auditors from the reassembled
  event stream.

Entry point: ``Scenario(backend="sharded")`` /
``repro.api.run_scenario(..., backend="sharded")``, which hand the
assembled run to :func:`repro.net.coordinator.run_sharded_scenario`.
"""
