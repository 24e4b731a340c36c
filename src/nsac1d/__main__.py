"""`python -m nsac1d ...` runs the nsac1d command line."""

from .cli_io import main_cli

if __name__ == "__main__":
    main_cli()
