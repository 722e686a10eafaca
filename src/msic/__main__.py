from msic.cli import cli_entrypoint
cli_entrypoint()
