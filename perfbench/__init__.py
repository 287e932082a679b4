"""Complete-run serving benchmark (see ``perfbench/run.py``)."""
