"""Analysis: closed-form paper bounds, power-law fitting, run statistics."""
