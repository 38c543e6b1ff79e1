"""Non-repetitive (square-free) graph colorings: exact counting of list
colorings, growth and path-count checks, closed-form color bounds, and a
randomized resampling colorer."""

__version__ = "0.1.0"
