pub struct Reexported {
    pub field: u32,
}

pub fn imported_helper() -> Reexported {
    Reexported { field: 1 }
}
