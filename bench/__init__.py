"""End-to-end real-time benchmark of the MegaScale-Data reproduction.

Run ``python3 -m bench`` from the repository root; see ``bench/README.md``.
"""
