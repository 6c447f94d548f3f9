"""Host-time benchmark of the disaggsim simulator; run ``perfbench/run.py``."""
