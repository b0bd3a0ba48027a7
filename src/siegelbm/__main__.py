"""``python -m siegelbm``: the command line of siegelbm.cli."""
from .cli import main

raise SystemExit(main())
