pub trait Describe {
    fn describe(&self) -> String;
}

pub struct Counted;

impl Describe for Counted {
    fn describe(&self) -> String {
        "counted".into()
    }
}
