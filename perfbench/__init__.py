"""The repository's performance benchmark (see ``perfbench/run.py``).

Three seeded workloads drive the public API (``Workspace``,
``split_workspace``, ``WorkspaceServer``, ``RemoteWorkspace``), print
every end-to-end metric by name with its unit, and check every answer.
A separate traced run (``--trace 1``) wraps the public functions of each
layer from the outside and reports per-layer metrics.  The recorded
decisions (sizes, seeds, rates, latency limits, and which end-to-end
metric each per-layer metric should move) live in ``decisions.json``.
"""
