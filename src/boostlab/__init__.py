"""boostlab: bias-aware adaptive sampling experiments.

Calibrated-confidence inverted sampling with temperature scheduling,
per-class bias metrics, and a small fully differentiable classifier to
run it all end to end.
"""
