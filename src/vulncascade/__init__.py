"""Two-stage vulnerability detection for C/C++ source.

A binary convolutional detector screens normalized token sequences; samples
it flags are handed to a convolutional-recurrent classifier that names the
weakness class.  Everything numeric runs on a small from-scratch layer
library over numpy arrays.
"""

__version__ = "0.1.0"
