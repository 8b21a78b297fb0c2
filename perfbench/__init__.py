"""End-to-end benchmark of the mmbench command surface (see ``run.py``)."""
