"""Block-autoregressive discrete-diffusion molecule generation and search."""

__version__ = "0.1.0"
STREAM_VERSION = 1  # of the random streams: a change that moves one bumps it
