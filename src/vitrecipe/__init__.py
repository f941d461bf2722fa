"""Desk-scale supervised ViT training recipe, self-contained on numpy."""
