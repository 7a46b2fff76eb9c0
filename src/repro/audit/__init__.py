"""Protocol-external auditors: confidentiality and quality of delivery."""
